package main

import "testing"

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 110, End: 130}}, 80},
		{"disjoint", []span{{Start: 110, End: 130}, {Start: 150, End: 160}}, 70},
		{"overlapping", []span{{Start: 110, End: 150}, {Start: 130, End: 170}}, 40},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"unordered", []span{{Start: 150, End: 170}, {Start: 110, End: 160}}, 40},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"outside", []span{{Start: 10, End: 90}, {Start: 200, End: 300}}, 100},
		{"covering", []span{{Start: 0, End: 1000}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestGroupByRequest(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Kind: kindClient, Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Kind: kindHandler, Start: 10, End: 90},
		{ID: 3, Parent: 2, Req: 1, Kind: kindWireFetch, Start: 20, End: 30},
		{ID: 4, Parent: 2, Req: 1, Kind: kindWireInvoke, Start: 40, End: 50},
		{ID: 5, Parent: 9, Req: 9, Kind: kindWireFetch, Start: 60, End: 70}, // its client span never closed
		{ID: 6, Req: 6, Kind: kindClient, Start: 200, End: 300},
		{ID: 7, Req: 7, Kind: kindReplayExecute, Start: 400, End: 500},
	}
	groups := groupByRequest(spans, kindClient)
	if len(groups) != 2 {
		t.Fatalf("%d groups, want 2", len(groups))
	}
	g := groups[0]
	if g.root.ID != 1 || g.handler == nil || g.handler.ID != 2 || len(g.wire) != 2 {
		t.Fatalf("first group: %+v", g)
	}
	if got := selfTime(g.root, []span{*g.handler}); got != 20 {
		t.Errorf("transport time %d, want 20", got)
	}
	if got := selfTime(*g.handler, g.wire); got != 60 {
		t.Errorf("handler self time %d, want 60", got)
	}
	if groups[1].handler != nil || len(groups[1].wire) != 0 {
		t.Errorf("second group: %+v", groups[1])
	}
}
