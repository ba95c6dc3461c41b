package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"elites/internal/core"
)

// FuzzParseStages drives the ?stages= parser with arbitrary selections: it
// must never panic, and an accepted selection must be a duplicate-free
// subset of core.StageNames() in canonical order that re-parses to itself.
// The checked-in corpus under testdata/fuzz covers duplicates, blanks,
// padding, unknown names and the full vocabulary.
func FuzzParseStages(f *testing.F) {
	f.Add("degree,basic")
	f.Fuzz(func(t *testing.T, raw string) {
		got, err := parseStages(raw)
		if err != nil {
			return
		}
		names := core.StageNames()
		j := 0
		for _, s := range got {
			for j < len(names) && names[j] != s {
				j++
			}
			if j == len(names) {
				t.Fatalf("parseStages(%q) = %v: not a duplicate-free subset of %v in canonical order", raw, got, names)
			}
			j++
		}
		canon := strings.Join(got, ",")
		again, err := parseStages(canon)
		if err != nil || strings.Join(again, ",") != canon {
			t.Fatalf("parseStages(%q) = %v, but %q re-parses to %v, %v", raw, got, canon, again, err)
		}
	})
}

// FuzzUsersBatch POSTs raw users:batch bodies to a small dataset whose
// feature rows are primed, so no input reaches a pipeline run: the server
// must never panic or answer 5xx, and every 200 must carry exactly one
// user per requested rank, in request order. The body memo is off so every
// accepted body takes the build path. The checked-in corpus under
// testdata/fuzz covers malformed JSON, wrong types, out-of-range and
// repeated ranks, and trailing bytes.
func FuzzUsersBatch(f *testing.F) {
	s := newTestServer(f, Config{Options: fastServeOptions(), BodyCacheBytes: -1})
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets/demo/users:batch", bytes.NewReader(body)))
		return rec
	}
	if rec := post([]byte(`{"ranks":[1]}`)); rec.Code != http.StatusOK {
		f.Fatalf("priming batch: %d %s", rec.Code, rec.Body)
	}
	f.Add([]byte(`{"ranks":[3,1,2]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(body)
		if rec.Code >= 500 {
			t.Fatalf("body %q: %d %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var req batchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("body %q answered 200 but does not decode: %v", body, err)
		}
		var view struct {
			Users []struct {
				Rank int `json:"rank"`
			} `json:"users"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			t.Fatalf("body %q: response does not decode: %v", body, err)
		}
		if len(view.Users) != len(req.Ranks) {
			t.Fatalf("body %q: %d users for %d ranks", body, len(view.Users), len(req.Ranks))
		}
		for i, u := range view.Users {
			if u.Rank != req.Ranks[i] {
				t.Fatalf("body %q: user %d has rank %d, want %d", body, i, u.Rank, req.Ranks[i])
			}
		}
		if runs, _, _ := s.met.counters(); runs != 1 {
			t.Fatalf("body %q ran the pipeline: %d runs, want the priming run only", body, runs)
		}
	})
}
