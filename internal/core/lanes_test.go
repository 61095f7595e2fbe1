package core

import (
	"math"
	"testing"
)

// TestFoldResultsPrefersExact pins the sketch fold: a pruned bound that
// sits a rounding step below the cutoff must not take the place of an
// exact completion that improves the bucket, and the least bound is the
// sketch's answer only when no completion scored exactly.
func TestFoldResultsPrefersExact(t *testing.T) {
	const cut = 10.0
	below := math.Nextafter(cut, 0) // a bound one step under the cutoff
	cases := []struct {
		name      string
		results   []laneResult
		wantIdx   int
		wantD     float64
		wantExact bool
		wantNew   int
	}{
		{
			name: "bound below an exact improvement",
			results: []laneResult{
				{d: below - 1e-15, exact: false, scored: true},
				{d: below, exact: true, scored: true},
				{d: 12, exact: true, scored: true},
			},
			wantIdx: 1, wantD: below, wantExact: true, wantNew: 1,
		},
		{
			name: "least exact wins over earlier exact",
			results: []laneResult{
				{d: 9, exact: true, scored: true},
				{d: 1, exact: false, scored: true},
				{d: 8, exact: true, scored: true},
			},
			wantIdx: 2, wantD: 8, wantExact: true, wantNew: 2,
		},
		{
			name: "no exact result falls back to the least bound",
			results: []laneResult{
				{d: 11, exact: false, scored: true},
				{d: 10, exact: false, scored: true},
				{scored: false},
			},
			wantIdx: 1, wantD: 10, wantExact: false,
		},
		{
			name: "exact non-improving result still beats a lower bound",
			results: []laneResult{
				{d: 10.5, exact: false, scored: true},
				{d: 11, exact: true, scored: true},
			},
			wantIdx: 1, wantD: 11, wantExact: true,
		},
		{
			name:    "nothing scored",
			results: []laneResult{{scored: false}},
			wantIdx: -1, wantD: math.Inf(1), wantExact: false,
		},
	}
	for _, tc := range cases {
		var fl Funnel
		idx, d, exact := foldResults(tc.results, cut, &fl)
		if idx != tc.wantIdx || d != tc.wantD || exact != tc.wantExact {
			t.Errorf("%s: fold = (%d, %v, %v), want (%d, %v, %v)",
				tc.name, idx, d, exact, tc.wantIdx, tc.wantD, tc.wantExact)
		}
		if fl.NewBest != tc.wantNew {
			t.Errorf("%s: NewBest = %d, want %d", tc.name, fl.NewBest, tc.wantNew)
		}
	}
}
