package fault

import (
	"math"
	"testing"
)

// firedAt is one fired visit: its per-site visit number and the drawn
// kind's index in the plan's Kinds (the default order for both
// injectors).
type firedAt struct {
	visit uint64
	kind  int
}

// TestDrawGolden pins the first ten fired visits and kinds at two sites
// of each injector for one seed. The values were recorded from the
// draw as originally written out in each injector, so any change to the
// seed mix, the site hash, the visit counter or the kind pick shows
// here as a different sequence.
func TestDrawGolden(t *testing.T) {
	const seed, rate = 20240611, 0.05
	first := func(visit func() (int, uint64, bool)) []firedAt {
		var out []firedAt
		for len(out) < 10 {
			if k, v, fire := visit(); fire {
				out = append(out, firedAt{v, k})
			}
		}
		return out
	}
	injWant := map[string][]firedAt{
		SiteCoreMethod: {{21, 0}, {179, 0}, {199, 0}, {208, 0}, {279, 2},
			{318, 2}, {420, 1}, {445, 3}, {455, 1}, {492, 0}},
		SiteServiceSolve: {{28, 2}, {50, 0}, {107, 0}, {148, 3}, {149, 3},
			{163, 0}, {204, 1}, {213, 1}, {231, 1}, {250, 1}},
	}
	for site, want := range injWant {
		inj := NewInjector(Plan{Seed: seed, Rate: rate})
		got := first(func() (int, uint64, bool) {
			k, v, fire := inj.visit(site)
			return int(k), v, fire
		})
		checkFired(t, "Injector "+site, got, want)
	}
	netWant := map[string][]firedAt{
		"net.b0": {{4, 3}, {32, 3}, {70, 3}, {108, 0}, {109, 0},
			{122, 1}, {142, 3}, {145, 3}, {171, 2}, {185, 3}},
		"net.b1": {{3, 1}, {8, 1}, {17, 2}, {18, 2}, {42, 0},
			{47, 0}, {57, 1}, {76, 3}, {102, 1}, {118, 2}},
	}
	for site, want := range netWant {
		inj := NewNetInjector(NetPlan{Seed: seed, Rate: rate})
		got := first(func() (int, uint64, bool) {
			k, v, fire := inj.visit(site)
			return int(k), v, fire
		})
		checkFired(t, "NetInjector "+site, got, want)
	}
}

func checkFired(t *testing.T, what string, got, want []firedAt) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: fire %d = %+v, want %+v (got %v)", what, i, got[i], want[i], got)
		}
	}
}

// TestNaNRateTakesDefault: a NaN rate compares false against every
// draw, so unless it is mapped to the default it fires on every visit.
// It must behave exactly like the zero (default 0.01) rate.
func TestNaNRateTakesDefault(t *testing.T) {
	const visits = 2000
	fires := func(visit func() bool) []int {
		var out []int
		for i := 1; i <= visits; i++ {
			if visit() {
				out = append(out, i)
			}
		}
		return out
	}
	same := func(what string, nan, zero []int) {
		t.Helper()
		if len(nan) != len(zero) {
			t.Errorf("%s: NaN rate fired %d of %d visits, default rate %d", what, len(nan), visits, len(zero))
			return
		}
		for i := range nan {
			if nan[i] != zero[i] {
				t.Errorf("%s: fire %d at visit %d under NaN, %d under the default", what, i, nan[i], zero[i])
				return
			}
		}
	}

	injFires := func(rate float64) []int {
		inj := NewInjector(Plan{Seed: 9, Rate: rate})
		return fires(func() bool { _, _, fire := inj.visit(SiteCoreMethod); return fire })
	}
	same("Injector", injFires(math.NaN()), injFires(0))

	netFires := func(rate float64) []int {
		inj := NewNetInjector(NetPlan{Seed: 9, Rate: rate})
		return fires(func() bool { _, _, fire := inj.visit("net.b0"); return fire })
	}
	same("NetInjector", netFires(math.NaN()), netFires(0))
}
