package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
)

// stateBox wraps an agent's carried state so a nil or interface-typed
// value round-trips through gob.
type stateBox struct{ V any }

// encodeState is the one codec of opaque payloads — checkpointed agent
// state, node variables, and both as frame payloads: a self-contained
// gob stream of a stateBox (the type definitions, then the value).
func encodeState(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := encodeStateTo(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeStateTo writes encodeState's bytes for v to w.
func encodeStateTo(w io.Writer, v any) error {
	if err := gob.NewEncoder(w).Encode(&stateBox{V: v}); err != nil {
		return fmt.Errorf("wire: checkpoint encode: %w", err)
	}
	return nil
}

// decodeState restores encodeState bytes with a fresh gob decoder: the
// stream carries its own type definitions, so no decoder state outlives
// one payload.
func decodeState(b []byte) (any, error) {
	var box stateBox
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&box); err != nil {
		return nil, fmt.Errorf("wire: checkpoint decode: %w", err)
	}
	return box.V, nil
}
