package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"haste/internal/core"
	"haste/internal/instio"
	"haste/internal/model"
	"haste/internal/workload"
)

// testInstance generates a small deterministic instance.
func testInstance(t testing.TB, seed int64) *model.Instance {
	t.Helper()
	cfg := workload.SmallScale()
	return cfg.Generate(rand.New(rand.NewSource(seed)))
}

// instanceJSON serializes an instance to the instio wire format.
func instanceJSON(t testing.TB, in *model.Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := instio.Save(&buf, in, ""); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requestBody builds a /v1/schedule body around raw instance bytes. The
// instance bytes are spliced in verbatim (json.Marshal would compact a
// RawMessage), so byte-memo tests control the exact wire bytes.
func requestBody(t testing.TB, instance []byte, opts map[string]any) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(`{"instance":`)
	buf.Write(bytes.TrimSpace(instance))
	keys := make([]string, 0, len(opts))
	for k := range opts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, err := json.Marshal(opts[k])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, ",%q:%s", k, v)
	}
	buf.WriteString("}")
	return buf.Bytes()
}

// decodeResponse parses a response body into the given value, failing the
// test on malformed JSON.
func decodeResponse(t testing.TB, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("response is not valid JSON: %v\n%s", err, body)
	}
}

// schedulesEqual compares two policy matrices exactly.
func schedulesEqual(a, b [][]int) error {
	if len(a) != len(b) {
		return fmt.Errorf("charger count %d != %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("charger %d: slot count %d != %d", i, len(a[i]), len(b[i]))
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return fmt.Errorf("charger %d slot %d: policy %d != %d", i, k, a[i][k], b[i][k])
			}
		}
	}
	return nil
}

// cachedProblems returns the compiled problems resident in the server's
// cache, most recently used first.
func cachedProblems(s *Server) []*core.Problem {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	var ps []*core.Problem
	for el := s.cache.problems.order.Front(); el != nil; el = el.Next() {
		ps = append(ps, el.Value.(*lruEntry[string, *core.Problem]).val)
	}
	return ps
}
