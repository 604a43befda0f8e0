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
		"e84853c30ba450aa61559cc9bae6a18ff1aedea722c8b2ecddc792e6a21017dd",
		"f947bfe32e6d17a7f0a7001dbe18e20e663067dd22a4f9b2fce381881855db14",
		"b34bda4b60215bb46543f791c5071062832534ddb89e03b05ae2140eaf812bea",
		"2fa032730fe69a32f3e03eb344863b19196aa0e94f346aecbd2fa8f57942d7d7",
		"d984257a54fc19d9957587dc08cb54c3c869abc6e677ff5161b42cbaddcf2aa4",
		"5f8412990b24932fbd57f0278a14a538411cb3bb8277c2347447eddb8f61137e",
		"54cf57025406762b97d5ee6a6502567b2744d37d065156c12c2c4639653a3b33",
		"5b9666b2d9cd41180e36472d3b9a1596445ce8c5ca200bd52d2112cf6ea66260",
		"b9bd69426dfbfaa7833bfa19a03afe6ce3b9b79290df7311233e21e4aca8928e",
	},
	2: {
		"3367ba5c0366e74fe96162195a1d7ee3bf5bf8560d7f7b10f34f7dcc5dd480aa",
		"d243f5c4fbd0e643eaf0618aa0ebc8bc21c3cb4515ca7647c8bbc67c27d55348",
		"749bc5fe4a4f23cb7b054fa6551d54de69274d6d353aa2335f02174be44bc739",
		"67a52ad7c3ddb818e6aea4d397df02a438cb5a158982fab010595e3967f1295b",
		"3e6e9057ea61b484ac49fb35bc4945f304bfa2aae9cd90a5739c0c9d574b7999",
		"e218350c23326d773c3d4e807f7fcbdeb018ed75178edebda5b74319a64876cc",
		"d60fafd32edb88098a873834882d53d209bf5b8ecaf52690b98fa7876d2c2594",
		"f2e13f92f62c5e4ce76cc46280c38f613573d23c3349fd538ccb1e6674dfae08",
		"ccd3fc34b5109937d7b48805a045f5e97f061cd522a186c3203b64bcaab88d13",
	},
}

// goldenDumbbellCkpt is the SHA-256 of the mid-run dumbbell snapshot
// buildGoldenDumbbell produces.
const goldenDumbbellCkpt = "e18dba425636de3e76f73e8bedd6d3ccbda11e8cf7ddb4f3540acc18417b4def"

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
