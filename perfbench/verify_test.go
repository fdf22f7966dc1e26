package main

import (
	"bytes"
	"errors"
	"testing"

	"repro/prefetcher/fetch"
	"repro/prefetcher/fetch/httpfetch"
)

func batchBody(t *testing.T, v verifier, ids []fetch.ID) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, id := range ids {
		if err := httpfetch.WriteBatchItem(&b, id, v.payloads[id]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

func TestVerifierObject(t *testing.T) {
	v := verifier{catalog(20, 64)}
	if string(v.payloads[12][:6]) != "121212" {
		t.Fatalf("payload of 12 starts %q", v.payloads[12][:6])
	}
	if err := v.object(12, append([]byte(nil), v.payloads[12]...)); err != nil {
		t.Fatalf("intact body: %v", err)
	}
	bad := append([]byte(nil), v.payloads[12]...)
	bad[40] ^= 1
	if err := v.object(12, bad); !errors.Is(err, errMismatch) {
		t.Fatalf("corrupted body: err = %v, want a mismatch", err)
	}
	if err := v.object(12, v.payloads[12][:63]); !errors.Is(err, errMismatch) {
		t.Fatalf("short body: err = %v, want a mismatch", err)
	}
	if err := v.object(11, v.payloads[12]); !errors.Is(err, errMismatch) {
		t.Fatalf("wrong object: err = %v, want a mismatch", err)
	}
}

func TestVerifierBatch(t *testing.T) {
	v := verifier{catalog(20, 64)}
	ids := []fetch.ID{3, 17, 5}
	if err := v.batch(ids, batchBody(t, v, ids)); err != nil {
		t.Fatalf("intact batch: %v", err)
	}
	if err := v.batch(ids, batchBody(t, v, []fetch.ID{3, 5, 17})); !errors.Is(err, errMismatch) {
		t.Fatalf("reordered batch: err = %v, want a mismatch", err)
	}
	body := batchBody(t, v, ids)
	body[len(body)-1] ^= 1
	if err := v.batch(ids, body); !errors.Is(err, errMismatch) {
		t.Fatalf("corrupted record: err = %v, want a mismatch", err)
	}
	if err := v.batch(ids, batchBody(t, v, ids[:2])); !errors.Is(err, errMismatch) {
		t.Fatalf("short batch: err = %v, want a mismatch", err)
	}
}
