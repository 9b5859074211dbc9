package engine

import "math"

// This file is the one home of the chunk helpers of the join operator's
// inputs: the re-chunking granularity and the per-chunk scores the tile
// explorer ranks and bounds by.

// DefaultRechunkSize is the re-chunking granularity used for join inputs
// that do not originate from a chunked service node (selections, exact
// services, nested joins); override per execution with
// Options.DefaultChunkSize.
const DefaultRechunkSize = 10

// rechunk slices a ranked list into chunks of the given size (the last
// chunk may run short).
func rechunk[T any](items []T, size int) [][]T {
	if size <= 0 {
		size = DefaultRechunkSize
	}
	var chunks [][]T
	for lo := 0; lo < len(items); lo += size {
		hi := lo + size
		if hi > len(items) {
			hi = len(items)
		}
		chunks = append(chunks, items[lo:hi])
	}
	return chunks
}

// chunkTop is the score of a chunk's first (best-ranked) combination, the
// rank the tile explorer orders chunk pairs by.
func chunkTop(chunk []*comb) float64 {
	if len(chunk) == 0 {
		return 0
	}
	return chunk[0].score
}

// maxScore is the best score in a combination list (-Inf when empty).
func maxScore(combos []*comb) float64 {
	m := math.Inf(-1)
	for _, c := range combos {
		if c.score > m {
			m = c.score
		}
	}
	return m
}
