package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/snap"
	"repro/internal/tcp"
)

// Golden checkpoint bytes. The resume-equivalence tests compare a resumed
// render against an uninterrupted one inside one commit; they cannot see a
// change to the snapshot layout that encode and decode make together. These
// digests are of whole snapshot files, so "the wire format is unchanged"
// holds across commits: a digest moves only with snap.Version.

// goldenMetroCkpt holds the SHA-256 of every checkpoint file the churned
// 4-sector sweep writes (three protocols, a barrier every 500 ms), on the
// single-heap executor and on two shards.
var goldenMetroCkpt = map[int][]string{
	0: {
		"1f322a3dfe8f2326d96fea861e956dc26fe07fb3a0c6157b2c1efe846d8d97cb",
		"2a35cb03028786472e62b1dcb1d89c0ae65d488a18c8a73a5c07e2979e839c80",
		"57d097a4bdf81848914e566f238999ccbcffe81895a2541ed2e2106a8898632a",
		"89ef28589b5191734000d816acd6027d6328cded0f1c9da2d4aa3b4139adb27a",
		"2e6fc3209d70d75336edbf88db7fa6903bc7c88f051e31bb347423d25bab6175",
		"69ec1ad787b0332bb447e9dd13a17a78d2a758ac66482dc0768354cfb84c905d",
		"aafc487577b22ee70ef4b606921772c6dcbe8f1a55a9de1a96919c335d796861",
		"649c8ad3853e7a147a0d7de5dba219de187b4f30c5cbc844019b7e57c9f4a39d",
		"c2e0b2e22d40d07df897fec18795965fc954deb4447ef07511bde9d667dec276",
	},
	2: {
		"7852b96ba5b374160e427188df2936314fff2a2089e5feb1a83f474ec06fb091",
		"8d9477e5956bde77ffaca66695a70c02f597e03498cd4c1f1ed6869fe75e3474",
		"b65473d0d8975134792b740d08d5ac7a764988ca37691928555d55398d801441",
		"41cd98d897d9d9dd61ab0e2be20eeecc11874fc93f5b1625be0f58c33ec1c54a",
		"06b6a529f23790cfdfa3f4ac46fb945ab8bb32a5a7c6454136e7d62cdc086415",
		"47cad64d16ae44ab769670d803d6fcecfd1eab12ca3e46387d8afeda431b5ba8",
		"f2d85dec97aa7c6c7fd6e3611415a251a0f32da1b3172778b9ab093d3534e276",
		"c9bfb70204b9ed11d2f91aacce2b871081d2c7997cb18cf3668855414dc65b35",
		"3adebb49610e108a6fa58e7275cf26958ffd96f9c44f2db2e949c699c417ee6e",
	},
}

// goldenDumbbellCkpt is the SHA-256 of the mid-run dumbbell snapshot
// buildGoldenDumbbell produces.
const goldenDumbbellCkpt = "aacb9552e973726e98f3c96dd56ae145f95bbea932a668b922ae45313f10317c"

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGoldenMetroCheckpointBytes(t *testing.T) {
	for _, shards := range []int{0, 2} {
		_, copies := runCheckpointed(t, ckptOpts(shards, 0.5), 500*time.Millisecond)
		var got []string
		for _, path := range copies {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, sha256Hex(b))
		}
		want := goldenMetroCkpt[shards]
		if len(got) != len(want) {
			t.Errorf("shards %d: sweep wrote %d checkpoints, golden has %d; got digests:\n%q", shards, len(got), len(want), got)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("shards %d: checkpoint %d digest %s, golden %s", shards, i+1, got[i], want[i])
			}
		}
	}
}

// buildGoldenDumbbell is the topology the metro sweep does not reach: a RED
// queue on a FixedLink behind a fault decorator that drops, duplicates,
// reorders and — across the snapshot instant — stalls, shared by NewReno,
// Vegas and an on/off CBR flow.
func buildGoldenDumbbell() (*netsim.Dumbbell, *faults.Link) {
	sim := netsim.NewSim()
	plan := &faults.Plan{
		Name: "golden",
		Events: []faults.Event{
			{Kind: faults.Outage, At: 700 * time.Millisecond, Dur: 60 * time.Millisecond},
			{Kind: faults.Handover, At: 2880 * time.Millisecond, Dur: 80 * time.Millisecond},
		},
		Loss:        &faults.GilbertElliott{PGoodBad: 0.003, PBadGood: 0.3, LossGood: 0.0005, LossBad: 0.2},
		CorruptProb: 0.001, DupProb: 0.02, ReorderProb: 0.1, ReorderDelay: 60 * time.Millisecond,
	}
	var fl *faults.Link
	d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		fl = faults.Wrap(sim, plan, 11, dst, func(fdst netsim.Receiver) netsim.Link {
			return netsim.NewFixedLink(sim, netsim.NewRED(3_000, 20_000, 0.2, 5), 2.5, 20*time.Millisecond, fdst, 3)
		})
		return fl
	}, MTU, []netsim.FlowSpec{
		{Ctrl: tcp.NewNewReno(), AckDelay: 10 * time.Millisecond},
		{Ctrl: tcp.NewVegas(), AckDelay: 15 * time.Millisecond, Start: 100 * time.Millisecond},
		{CBRMbps: 1.5, OnFor: 300 * time.Millisecond, OffFor: 150 * time.Millisecond},
	})
	return d, fl
}

func TestGoldenDumbbellCheckpointBytes(t *testing.T) {
	d, fl := buildGoldenDumbbell()
	d.Run(2890 * time.Millisecond)
	red := fl.Queue().(*netsim.RED)
	if fl.Held == 0 || fl.ReorderPending == 0 || fl.Duplicated == 0 || fl.BurstLost == 0 || red.EarlyDrops == 0 || red.Len() == 0 {
		t.Fatalf("barrier misses a state the digest is meant to cover: %+v, RED early drops %d, queued %d",
			fl.Counters, red.EarlyDrops, red.Len())
	}
	for i, m := range d.Metrics {
		if m.Received == 0 {
			t.Fatalf("flow %d has delivered nothing by the barrier", i)
		}
	}
	e := snap.NewEncoder()
	d.Snapshot(e)
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(blob); got != goldenDumbbellCkpt {
		t.Errorf("dumbbell snapshot (%d bytes) digest %s, golden %s", len(blob), got, goldenDumbbellCkpt)
	}
}
