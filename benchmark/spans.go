package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies one timed call site of the ladder; its position in
// spanNames is also the rung's slot in the span-id space.
type spanName int

const (
	spanNone spanName = iota // no parent
	spanClient
	spanWire
	spanLsasg
	spanWorkingset
	spanServe // serve.Engine.Serve, or shard.Service.Serve when sharded
	spanRead
	spanApply
	spanPublish
	spanCoreBare
)

var spanNames = [...]struct{ name, layer string }{
	spanNone:       {"", ""},
	spanClient:     {"Client.Do -> child dsgserve", "loadgen"},
	spanWire:       {"Client.Do -> in-process wire.Server", "wire"},
	spanLsasg:      {"Service.ServeOps", "lsasg"},
	spanWorkingset: {"Bound.Add", "workingset"},
	spanServe:      {"Engine.Serve / shard.Service.Serve", "serve"},
	spanRead:       {"Replica.RouteKeys / ScanFrom", "skipgraph"},
	spanApply:      {"DSG.ApplyOp (in the re-enacted loop)", "core"},
	spanPublish:    {"Publisher.Publish", "skipgraph"},
	spanCoreBare:   {"DSG.ApplyOp (bare loop)", "core"},
}

// span is one timed call around a layer boundary. Spans of one op share Seq;
// Parent is the span, one rung up, of the same op (0 at the top). A layer's
// self time is its span's duration minus its children's.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Seq     int    `json:"seq"`
	StartNS int64  `json:"start_ns"` // since the recorder's first span; 0 when only the duration is known
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory until the run ends.
type recorder struct {
	k     int // ops in the traced prefix
	epoch time.Time
	spans []span
}

func (r *recorder) id(name spanName, seq int) int {
	if name == spanNone {
		return 0
	}
	return int(name-1)*r.k + seq + 1
}

// rung records one rung's prefix: op seq began at starts[seq] and took
// durs[seq].
func (r *recorder) rung(name, parent spanName, starts []time.Time, durs []time.Duration) {
	for seq, d := range durs {
		var start int64
		if t := starts[seq]; !t.IsZero() {
			if r.epoch.IsZero() {
				r.epoch = t
			}
			start = int64(t.Sub(r.epoch))
		}
		r.spans = append(r.spans, span{
			ID: r.id(name, seq), Parent: r.id(parent, seq),
			Name: spanNames[name].name, Layer: spanNames[name].layer,
			Seq: seq, StartNS: start, EndNS: start + int64(d),
		})
	}
}

// write dumps the spans to <dir>/trace-<workload>.json.
func (r *recorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
