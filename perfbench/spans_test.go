package main

import "testing"

func TestUnionLen(t *testing.T) {
	cases := []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 100, 0},
		{[][2]int64{{10, 20}, {30, 40}}, 0, 100, 20},
		{[][2]int64{{10, 40}, {20, 30}}, 0, 100, 30},           // nested
		{[][2]int64{{30, 50}, {10, 35}, {45, 60}}, 0, 100, 50}, // chained overlaps, unsorted
		{[][2]int64{{0, 50}, {60, 200}}, 20, 100, 70},          // clipped to the parent
	}
	for i, c := range cases {
		if got := unionLen(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("case %d: unionLen = %d, want %d", i, got, c.want)
		}
	}
}

// TestSelfTimesOverlappingChildren builds one request's spans by hand:
// the facade's two shard legs overlap, and so do each pair's two mirror
// halves. Summing the children would make the facade's and the pairs'
// self times negative; the union gives the time no child covered.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, layer: layerClient, inst: 1},
		{start: 10, end: 90, layer: layerServer, inst: 1},
		{start: 20, end: 80, layer: layerStore, inst: 1},
		{start: 25, end: 60, layer: layerPair, inst: 0},
		{start: 30, end: 70, layer: layerPair, inst: 1},
		{start: 26, end: 50, layer: layerSeg, inst: 0},
		{start: 27, end: 55, layer: layerSeg, inst: 1},
		{start: 31, end: 65, layer: layerSeg, inst: 2},
		{start: 32, end: 40, layer: layerSeg, inst: 3},
	}
	want := []int64{
		20,             // client: 100 - server 80
		20,             // server: 80 - store 60
		60 - 45,        // store: legs cover [25,70]
		35 - (55 - 26), // pair 0: halves cover [26,55]
		40 - (65 - 31), // pair 1: halves cover [31,65]
		24, 28, 34, 8,  // segment logs: leaves
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (layer %d inst %d): self %d, want %d", i, spans[i].layer, spans[i].inst, got[i], want[i])
		}
	}
}

// TestSelfTimesAttribution checks that a child goes to the parent that
// contains it and matches its instance: server 0's store call is not a
// child of server 1's handler, and a segment log's call belongs to its
// own pair only.
func TestSelfTimesAttribution(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, layer: layerServer, inst: 0},
		{start: 5, end: 95, layer: layerServer, inst: 1},
		{start: 10, end: 30, layer: layerStore, inst: 0},
		{start: 40, end: 60, layer: layerStore, inst: 1},
		{start: 41, end: 59, layer: layerPair, inst: 1},
		{start: 42, end: 50, layer: layerSeg, inst: 0}, // pair 0's half: no container
		{start: 43, end: 58, layer: layerSeg, inst: 3},
	}
	want := []int64{80, 70, 20, 2, 18 - 15, 8, 15}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}
