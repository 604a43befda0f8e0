package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

// Figs. 5 and 7 render only a sketch of what they compute, so the golden
// digests cannot see a change in the rest of their results. These pins
// digest the full result values (%v), as they were before the figures moved
// onto the shared dumbbell builder.

func valueDigest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%v", v))))
}

func TestFigure5Pin(t *testing.T) {
	const want = "2e6c7eb7d612463e10cd299010cac606eba556dd940a10abeb311c07735f20ac"
	if got := valueDigest(Figure5(123)); got != want {
		t.Errorf("Figure5(123) digests %s, want %s", got, want)
	}
}

func TestFigure7Pin(t *testing.T) {
	const want = "f3b8f2d150be8a8305a2510fc812d0aee6f4aa49cfdc2afbf5c98d51c9b3aaa0"
	if got := valueDigest(Figure7(60*time.Second, 123)); got != want {
		t.Errorf("Figure7(60s, 123) digests %s, want %s", got, want)
	}
}
