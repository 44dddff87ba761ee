// Package sweep stands in for dcnr/internal/sweep: the driver test
// type-checks it under that import path, so simtaint's sink entry for the
// campaign's ordered stream emitter applies to the emitter declared here.
// Every finding position is pinned by the driver test.
package sweep

import (
	"bytes"
	"fmt"
	"time"
)

const numStreams = 3

type emitter struct{}

func (e *emitter) emit(i int, chunks [numStreams][]byte) error { return nil }

// wallChunk streams a wall-clock reading in a run's journal chunk, the way
// sweep serializes chunks: fmt.Fprintf(&buf, ...) taints buf, and
// buf.Bytes() carries the taint into the chunk array.
func wallChunk(e *emitter, i int) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"run\":%d,\"wall\":%d}\n", i, time.Now().UnixNano())
	var chunks [numStreams][]byte
	chunks[1] = buf.Bytes()
	return e.emit(i, chunks) // wall taint at the sink
}

// runChunk streams only deterministic run data: no finding.
func runChunk(e *emitter, i int) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"run\":%d}\n", i)
	return e.emit(i, [numStreams][]byte{buf.Bytes()})
}
