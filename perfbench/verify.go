package main

import (
	"bytes"
	"errors"
	"fmt"

	"repro/prefetcher/fetch"
	"repro/prefetcher/fetch/httpfetch"
)

// errMismatch marks a payload that failed verification.
var errMismatch = errors.New("payload mismatch")

// verifier checks every payload a client receives against the origin's
// deterministic catalog.
type verifier struct {
	payloads [][]byte
}

// object checks one /obj body.
func (v verifier) object(id int64, body []byte) error {
	if id < 0 || id >= int64(len(v.payloads)) {
		return fmt.Errorf("id %d outside the catalog: %w", id, errMismatch)
	}
	if !bytes.Equal(body, v.payloads[id]) {
		return fmt.Errorf("object %d: %d bytes differ from the origin's payload: %w", id, len(body), errMismatch)
	}
	return nil
}

// batch decodes a framed /batch reply with httpfetch's wire reader,
// which enforces one record per id in request order, then checks every
// record's bytes.
func (v verifier) batch(ids []fetch.ID, body []byte) error {
	items, err := httpfetch.ReadBatch(bytes.NewReader(body), ids, int64(len(body)))
	if err != nil {
		return fmt.Errorf("%v: %w", err, errMismatch)
	}
	for i, it := range items {
		data, _ := it.Data.([]byte)
		if err := v.object(int64(ids[i]), data); err != nil {
			return fmt.Errorf("batch record %d: %w", i, err)
		}
	}
	return nil
}
