// Package join implements the join methods of Section 4: the tile model of
// the two-service search space (Fig. 4), the nested-loop and merge-scan
// invocation strategies (Fig. 5), the rectangular and triangular completion
// strategies (Figs. 6–7), a deterministic explorer that turns a strategy
// pair into a stream of fetch and tile events, and a standalone parallel
// join executor over ranked chunk streams.
package join

import "fmt"

// Side identifies one of the two services of a binary join, conventionally
// X (the first) and Y (the second).
type Side int

const (
	// SideX is the first joined service.
	SideX Side = iota
	// SideY is the second joined service.
	SideY
)

// Other returns the opposite side.
func (s Side) Other() Side {
	if s == SideX {
		return SideY
	}
	return SideX
}

// String returns "X" or "Y".
func (s Side) String() string {
	if s == SideX {
		return "X"
	}
	return "Y"
}

// Tile is the rectangular region of the search space holding the point
// pairs of chunk X#x joined with chunk Y#y (Section 4.1). Coordinates are
// 0-based chunk indexes.
type Tile struct {
	X, Y int
}

// String renders the tile as t(x,y).
func (t Tile) String() string { return fmt.Sprintf("t(%d,%d)", t.X, t.Y) }

// IndexSum is x+y, the quantity extraction-optimal methods keep
// non-decreasing across adjacent extractions (Section 4.1).
func (t Tile) IndexSum() int { return t.X + t.Y }

// Adjacent reports whether two tiles share an edge.
func (t Tile) Adjacent(u Tile) bool {
	dx, dy := t.X-u.X, t.Y-u.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx+dy == 1
}

// Diagonal is the weighted diagonal index x·ry + y·rx used by the
// triangular completion strategy (Section 4.4.2, with ratio r = rx/ry).
func (t Tile) Diagonal(rx, ry int) int { return t.X*ry + t.Y*rx }

// EventKind discriminates explorer events.
type EventKind int

const (
	// EventFetch instructs the caller to issue one request-response to
	// the service on Event.Side.
	EventFetch EventKind = iota
	// EventTile instructs the caller to join the chunk pair of
	// Event.Tile.
	EventTile
)

// Event is one step of a join exploration.
type Event struct {
	Kind EventKind
	Side Side // valid when Kind == EventFetch
	Tile Tile // valid when Kind == EventTile
}

// String renders the event ("fetch X" or "t(2,1)").
func (e Event) String() string {
	if e.Kind == EventFetch {
		return "fetch " + e.Side.String()
	}
	return e.Tile.String()
}
