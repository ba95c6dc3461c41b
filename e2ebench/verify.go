package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/http/httptest"
	"strings"

	"elites/internal/core"
	"elites/internal/serve"
)

// reference is what every response is checked against.
//
// Every report and stage-view body comes from an in-process
// core.Characterizer run with the worker's options and no result cache,
// rendered exactly as the server renders it. The all-stages run is the
// one exception to "no cache": it runs cold into dir, so it is also the
// one-time cold battery that primes the disk cache warm-mixed (and the
// traced warm phase) reads. Its stage results are computed, never decoded, so a
// codec defect shows as a mismatch wherever a body is hydrated.
//
// The per-user rows of the warm mix (users/{rank}, users/{rank}/features,
// users:batch) come from a second worker, srv, with no result cache and
// no body memo. It computes the feature matrix itself on its first
// feature request and answers every later one from that matrix, where
// the worker under test decodes feature shards from the cache. Its row
// JSON is the same serve code as the worker under test's, so the table
// does not check how a row is rendered, only which values it holds.
// setUp drops the row worker, so it is not part of the heap warm-mixed's
// timed phase measures; expect starts it again when it is next needed.
//
// table maps a request key to the digest of the body it must get; every
// response of the stack under test must match it byte for byte.
type reference struct {
	dir       string
	full      uint64            // digest of the all-stages report body
	diskBytes int64             // size of dir after the cold battery
	table     map[uint64]uint64 // request key digest → body digest
	srv       *serve.Server
}

// renderReport runs the battery in process with the worker's options over
// cacheDir ("" for none) and encodes it the way serve encodes a JSON
// report (timed, as the server always runs, since Report.Timings decides
// which sections render).
func renderReport(d *dataset, cacheDir string, stages []string) ([]byte, *core.Report, error) {
	opts := batteryOptions(cacheDir)
	opts.Stages = stages
	opts.Timings = true
	rep, err := core.NewCharacterizer(opts).Run(d.ds, d.activity)
	if err != nil {
		return nil, nil, fmt.Errorf("reference battery: %w", err)
	}
	b, err := json.MarshalIndent(core.NewReportView(rep), "", "  ")
	if err != nil {
		return nil, nil, err
	}
	return append(b, '\n'), rep, nil
}

// renderStage encodes one stage view of rep the way serve encodes a
// stages/{stage} body.
func renderStage(rep *core.Report, stage string) ([]byte, error) {
	frag, err := core.StageView(rep, stage)
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(map[string]any{"dataset": datasetID, "stage": stage, "result": frag}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// makeReference runs the cold reference battery into dir and enters every
// stage view of the warm mix in the table.
func (r *runner) makeReference() error {
	dir := r.dir("refcache")
	body, rep, err := renderReport(r.data, dir, core.StageNames())
	if err != nil {
		return err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	full := maphash.Bytes(r.seed, body)
	r.ref = &reference{dir: dir, full: full, diskBytes: size, table: map[uint64]uint64{}}
	for _, s := range warmStages {
		b, err := renderStage(rep, s)
		if err != nil {
			return err
		}
		r.ref.table[r.refKey(request{method: http.MethodGet, path: stagePath(s)})] = maphash.Bytes(r.seed, b)
	}
	return nil
}

// reportPath is the report request path for a ?stages= query ("" for the
// default battery).
func reportPath(query string) string { return "/v1/datasets/" + datasetID + "/report" + query }

// stagePath is the stage-view request path of one stage.
func stagePath(stage string) string { return "/v1/datasets/" + datasetID + "/stages/" + stage }

// stagesQuery renders a ?stages= selection.
func stagesQuery(stages []string) string { return "?stages=" + strings.Join(stages, ",") }

// warmReference completes the table for the warm mix m: its report
// variants, each rendered by a cold in-process run of its own (the
// default battery leaves features out, so it is not the all-stages body),
// and the body of every priming request.
func (r *runner) warmReference(m *mix) error {
	for i, q := range m.reports {
		body, _, err := renderReport(r.data, "", m.reportStages[i])
		if err != nil {
			return err
		}
		r.ref.table[r.refKey(request{method: http.MethodGet, path: reportPath(q)})] = maphash.Bytes(r.seed, body)
	}
	for _, req := range primeRequests(m) {
		if _, err := r.expect(req); err != nil {
			return err
		}
	}
	return nil
}

// refKey is req's key in the reference table.
func (r *runner) refKey(req request) uint64 { return maphash.String(r.seed, req.key()) }

// expect returns the digest req's body must have. Report and stage bodies
// are all in the table from set-up; a per-user row the table does not
// hold yet is asked of the row worker once, which is started over the
// current dataset first if it is not running.
func (r *runner) expect(req request) (uint64, error) {
	key := r.refKey(req)
	if d, ok := r.ref.table[key]; ok {
		return d, nil
	}
	if class := endpointClass(req.path); class == "report" || class == "stage" {
		return 0, fmt.Errorf("reference: no body for %s %s", req.method, req.path)
	}
	if r.ref.srv == nil {
		srv := serve.New(serve.Config{Options: batteryOptions(""), BodyCacheBytes: -1})
		if err := srv.RegisterDataset(datasetID, r.data.ds, r.data.activity, "e2ebench"); err != nil {
			return 0, err
		}
		r.ref.srv = srv
	}
	hr := httptest.NewRequest(req.method, req.path, bytes.NewReader(req.body))
	if req.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	r.ref.srv.ServeHTTP(rec, hr)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("reference worker: %s %s: %d: %s", req.method, req.path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	d := maphash.Bytes(r.seed, rec.Body.Bytes())
	r.ref.table[key] = d
	return d, nil
}

// checkSamples counts every reply as attempted and every non-200 or
// wrong body as failed.
func (r *runner) checkSamples(reqs []request, replies []reply) error {
	for i, rep := range replies {
		r.attempted++
		if !rep.ok() {
			r.failed++
			r.noteFailure(fmt.Sprintf("%s %s: status %d err %v", reqs[i].method, reqs[i].path, rep.status, rep.err))
			continue
		}
		want, err := r.expect(reqs[i])
		if err != nil {
			return err
		}
		if rep.digest != want {
			r.failed++
			r.noteFailure(fmt.Sprintf("%s %s: body differs from the reference", reqs[i].method, reqs[i].path))
		}
	}
	return nil
}

// noteFailure keeps the first few request failures for the log.
func (r *runner) noteFailure(msg string) {
	if len(r.failures) < 10 {
		r.failures = append(r.failures, msg)
	}
}
