package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"elites/internal/core"
	"elites/internal/features"
)

// features.go serves the per-user feature matrix. Each dataset keeps one
// row memo keyed by shard index, filled either with shards decoded
// straight from the result cache — how a fresh server process over a warm
// cache directory answers without ever running the pipeline (counted in
// eliteserve_feature_shard_hits_total) — or, when a shard is missing, with
// copy-free views of the matrix a features-only pipeline run computed,
// coalesced like every other run. Encoded bodies memoize like every other
// response (respond).

// maxBatchRanks bounds one users:batch request.
const maxBatchRanks = 1024

// maxBatchBody bounds the users:batch request body size in bytes.
const maxBatchBody = 1 << 20

// featureStages is the run subset behind every feature response.
var featureStages = []string{core.StageFeatures}

// lookupRows resolves the rows covering nodes, by shard index, from the
// row memo, decoding shards the memo lacks from the result cache into it.
// ok is false when some shard is neither memoized nor stored; fromShards
// reports that the memo holds cache shards, not a run's matrix.
func (d *dataset) lookupRows(nodes []int) (got map[int]*features.Rows, fromShards, ok bool) {
	d.rowsMu.Lock()
	defer d.rowsMu.Unlock()
	got = map[int]*features.Rows{}
	for _, u := range nodes {
		i := u / features.ShardRows
		if got[i] != nil {
			continue
		}
		r := d.rows[i]
		if r == nil {
			if d.shards == nil {
				return nil, false, false
			}
			var hit bool
			if r, hit = d.shards.LoadShard(i, d.ds.Graph.NumNodes()); !hit {
				return nil, false, false
			}
			d.rows[i] = r
		}
		got[i] = r
	}
	return got, !d.rowsFromRun, true
}

// memoRows fills the row memo with views of a run's matrix (first run
// wins; the matrix is deterministic, so any two are bit-identical).
func (d *dataset) memoRows(m *features.Matrix) {
	if m == nil {
		return
	}
	d.rowsMu.Lock()
	defer d.rowsMu.Unlock()
	if d.rowsFromRun {
		return
	}
	shards := m.Shards()
	for i := range shards {
		d.rows[i] = &shards[i]
	}
	d.rowsFromRun = true
}

// featureRows returns the rows covering nodes, by shard index: from the
// row memo or cache shards when every shard is there, else after a
// features run fills the memo.
func (s *Server) featureRows(ctx context.Context, d *dataset, nodes []int) (map[int]*features.Rows, error) {
	if rows, fromShards, ok := d.lookupRows(nodes); ok {
		if fromShards {
			s.met.addFeatureShardHit()
		}
		return rows, nil
	}
	_, err := s.coalesced(ctx, s.reportKey(d, featureStages, "features-run"),
		func(ctx context.Context, prog *progress) (runOutcome, error) {
			rep, rerr := s.runBattery(ctx, d, featureStages, prog)
			if rerr != nil {
				// No degraded tier here: a feature response is rows, so a
				// failed features stage has nothing partial to serve.
				return runOutcome{}, rerr
			}
			d.memoRows(rep.Features)
			return runOutcome{}, nil
		})
	if err != nil {
		return nil, err
	}
	if rows, _, ok := d.lookupRows(nodes); ok {
		return rows, nil
	}
	return nil, errors.New("serve: features stage produced no matrix")
}

// userFeatures is node's per-user feature view from rows covering it.
func userFeatures(rows map[int]*features.Rows, rank, node int) core.UserFeaturesView {
	r := rows[node/features.ShardRows]
	return core.NewUserFeaturesView(rank, node, r.Row(node), r.ProbsRow(node), r.ClassOf(node))
}

func (s *Server) handleUserFeatures(w http.ResponseWriter, r *http.Request) {
	d, ok := s.pathDataset(w, r)
	if !ok {
		return
	}
	rank, node, ok := pathRank(w, r, d)
	if !ok {
		return
	}
	key := s.reportKey(d, featureStages, fmt.Sprintf("user-features:%d", rank))
	s.respond(w, r, key, "json", func() (runOutcome, error) {
		rows, err := s.featureRows(r.Context(), d, []int{node})
		if err != nil {
			return runOutcome{}, err
		}
		return encodeBody(userFeatures(rows, rank, node))
	})
}

// batchRequest is the users:batch request body.
type batchRequest struct {
	Ranks []int `json:"ranks"`
}

func (s *Server) handleUsersBatch(w http.ResponseWriter, r *http.Request) {
	d, ok := s.pathDataset(w, r)
	if !ok {
		return
	}
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Ranks) == 0 {
		writeError(w, http.StatusBadRequest, "ranks must be a non-empty array")
		return
	}
	if len(req.Ranks) > maxBatchRanks {
		writeError(w, http.StatusBadRequest, "too many ranks (%d > %d)", len(req.Ranks), maxBatchRanks)
		return
	}
	byRank, _, _ := d.ranking()
	nodes := make([]int, len(req.Ranks))
	for i, rank := range req.Ranks {
		if rank < 1 || rank > len(byRank) {
			writeError(w, http.StatusBadRequest, "rank %d out of range (dataset has %d users)", rank, len(byRank))
			return
		}
		nodes[i] = int(byRank[rank-1])
	}

	// The body is a function of the ordered rank list, so the memo key is
	// too (request order is preserved in the response).
	var sb strings.Builder
	for i, rank := range req.Ranks {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(rank))
	}
	key := s.reportKey(d, featureStages, "users-batch:"+sb.String())
	s.respond(w, r, key, "json", func() (runOutcome, error) {
		rows, err := s.featureRows(r.Context(), d, nodes)
		if err != nil {
			return runOutcome{}, err
		}
		view := core.UsersBatchView{Users: make([]core.UserFeaturesView, len(nodes))}
		for i, node := range nodes {
			view.Users[i] = userFeatures(rows, req.Ranks[i], node)
		}
		return encodeBody(view)
	})
}
