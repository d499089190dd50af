package main

import (
	"time"

	"zaatar"
	"zaatar/internal/elgamal"
	"zaatar/internal/farm"
	"zaatar/internal/obs"
	"zaatar/internal/transport"
)

// metricDef names one reported metric. moves states, for a per-layer
// metric, which end-to-end metric it should move and on which workload —
// written down before any measurement, as the basis for attributing a
// change. Per-layer metrics of a layer a workload does not run read 0.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "batch_p50_ms", unit: "ms", better: "lower"},
	{name: "instances_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_ms_per_instance", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayerDefs are the metrics a traced run reports, grouped by module.
var perLayerDefs = []metricDef{
	{"compiler.compile_ms", "ms", "lower", "setup_s on every workload"},
	{"compiler.solve_ms_per_instance", "ms", "lower", "prover_ms_per_instance on local-batch"},
	{"qap.construct_ms_per_instance", "ms", "lower", "prover_ms_per_instance and batch_p50_ms on local-batch"},
	{"elgamal.commit_ms_per_instance", "ms", "lower", "batch_p50_ms on local-batch and farm-shards"},
	{"elgamal.multiexp_items_per_s", "1/s", "higher", "batch_p50_ms on local-batch and farm-shards"},
	{"elgamal.keygen_ms_per_batch", "ms", "lower", "verifier_ms_per_instance on local-batch; batch_p50_ms on wire-sessions"},
	{"elgamal.fixedbase_exps_per_batch", "count", "lower", "verifier_ms_per_instance on local-batch; batch_p50_ms on wire-sessions"},
	{"pcp.queries_ms_per_batch", "ms", "lower", "verifier_ms_per_instance on local-batch"},
	{"pcp.answer_ms_per_instance", "ms", "lower", "batch_p50_ms on local-batch"},
	{"pcp.verify_ms_per_instance", "ms", "lower", "batch_p50_ms on wire-sessions (sum-check sessions)"},
	{"vc.setup_ms", "ms", "lower", "batch_p50_ms on local-batch"},
	{"vc.commit_ms", "ms", "lower", "batch_p50_ms on local-batch"},
	{"vc.decommit_ms", "ms", "lower", "batch_p50_ms on local-batch"},
	{"vc.respond_ms", "ms", "lower", "batch_p50_ms on local-batch"},
	{"vc.verify_ms", "ms", "lower", "batch_p50_ms on local-batch"},
	{"vc.driver_overhead_ms", "ms", "lower", "batch_p50_ms on wire-sessions"},
	{"vc.rejected", "count", "lower", "error_rate on every workload"},
	{"transport.session_open_ms", "ms", "lower", "session_open_ms on wire-sessions"},
	{"transport.bytes_in_per_batch", "bytes", "lower", "wire_bytes_per_instance on wire-sessions and farm-shards"},
	{"transport.bytes_out_per_batch", "bytes", "lower", "wire_bytes_per_instance on wire-sessions and farm-shards"},
	{"transport.roundtrip_overhead_ms_per_batch", "ms", "lower", "batch_p50_ms and batch_tail_ms on wire-sessions"},
	{"transport.admission_wait_ms", "ms", "lower", "batch_p50_ms and batch_tail_ms on wire-sessions"},
	{"transport.errors", "count", "lower", "error_rate on wire-sessions and farm-shards"},
	{"store.program_acquire_ms", "ms", "lower", "setup_s and session_open_ms on wire-sessions"},
	{"transport.cache.hits", "count", "higher", "setup_s and session_open_ms on wire-sessions"},
	{"transport.cache.misses", "count", "lower", "setup_s and session_open_ms on wire-sessions"},
	{"transport.hello.source_skipped", "count", "higher", "setup_s and session_open_ms on wire-sessions"},
	{"farm.shards_per_batch", "count", "lower", "batch_p50_ms and instances_per_s on farm-shards"},
	{"farm.shard_ms_p50", "ms", "lower", "batch_p50_ms and instances_per_s on farm-shards"},
	{"farm.shard.stolen", "count", "lower", "batch_p50_ms and instances_per_s on farm-shards"},
	{"farm.shard.requeued", "count", "lower", "batch_p50_ms and instances_per_s on farm-shards (expected 0)"},
	{"farm.reseed_ms_per_shard", "ms", "lower", "batch_p50_ms and instances_per_s on farm-shards"},
	{"farm.coordinator_overhead_ms", "ms", "lower", "batch_p50_ms and instances_per_s on farm-shards"},
	{"obs.trace_overhead_pct", "%", "lower", "nothing: traced vs untraced batch_p50_ms of this workload"},
}

// phaseSpans are the phase spans of the three protocol drivers (in-process
// vc.RunBatch, the wire session, the server); batch wall they leave
// uncovered is driver overhead.
var phaseSpans = map[string]bool{
	"vc.setup": true, "vc.reseed": true, "kernel.fixedbase.encrypt_r": true,
	"vc.commit": true, "wire.commit_exchange": true,
	"vc.decommit": true,
	"vc.respond":  true, "wire.respond_exchange": true,
	"vc.verify_stage": true, "vc.verify": true,
}

// acquireSpans are a server's program acquisitions: a compile (with its
// preprocessing) or an artifact-store load.
var acquireSpans = map[string]bool{"prover.compile": true, "prover.preprocess": true, "prover.store.load": true}

// counters are the registry readings a traced window takes a difference of.
type counters struct {
	mexpBases int64
	mexpTime  time.Duration
	fbExps    int64
	admission time.Duration
	srvErrs   int64
}

func readCounters(servers []*obs.Registry) counters {
	d := zaatar.Metrics()
	c := counters{
		mexpBases: d.Counter(elgamal.MetricMultiExpBases).Value(),
		mexpTime:  d.Histogram(elgamal.MetricMultiExpSpan).Snapshot().Sum,
		fbExps:    d.Counter(elgamal.MetricFixedBaseExps).Value(),
	}
	for _, r := range servers {
		c.admission += r.Histogram(transport.MetricAdmissionWait).Snapshot().Sum
		c.srvErrs += r.Counter(transport.MetricSessionErrors).Value()
	}
	return c
}

// layerRun is everything a traced run hands to the per-layer computation.
type layerRun struct {
	plain, traced *meter // the untraced and traced halves of the window
	batches       []*node
	dials         []*node
	setupRoots    []*node // trees of every set-up repetition
	compiles      []float64
	c0, c1        counters
	servers       []*obs.Registry
}

// perLayer computes every per-layer metric from the traced half: span sums
// from the stitched trees, differences of the library's registries, and
// the benchmark's own byte counts.
func perLayer(r layerRun) map[string]float64 {
	b := float64(max(len(r.batches), 1))
	n := float64(max(r.traced.ledger.attempted, 1))
	perInst := func(proc, name string) float64 { return ms(sum(r.batches, proc, name)) / n }
	perBatch := func(proc, name string) float64 { return ms(sum(r.batches, proc, name)) / b }

	out := map[string]float64{
		"compiler.compile_ms":              median(r.compiles),
		"compiler.solve_ms_per_instance":   perInst("", "prover.solve"),
		"qap.construct_ms_per_instance":    perInst("", "kernel.ntt.divide"),
		"elgamal.commit_ms_per_instance":   perInst("", "prover.crypto"),
		"elgamal.keygen_ms_per_batch":      perBatch(clientProc, "kernel.fixedbase.encrypt_r"),
		"elgamal.fixedbase_exps_per_batch": float64(r.c1.fbExps-r.c0.fbExps) / b,
		"pcp.queries_ms_per_batch":         perBatch(clientProc, "verifier.queries"),
		"pcp.answer_ms_per_instance":       perInst("", "prover.respond"),
		"pcp.verify_ms_per_instance":       perInst(clientProc, "vc.verify"),
		"vc.setup_ms":                      perBatch(clientProc, "vc.setup") + perBatch(clientProc, "vc.reseed"),
		"vc.commit_ms":                     perBatch("", "vc.commit"),
		"vc.decommit_ms":                   perBatch(clientProc, "vc.decommit"),
		"vc.respond_ms":                    perBatch("", "vc.respond"),
		"vc.verify_ms":                     perBatch(clientProc, "vc.verify"),
		"vc.rejected":                      float64(r.traced.ledger.rejected),
		"transport.bytes_in_per_batch":     float64(r.traced.batchWire.in) / b,
		"transport.bytes_out_per_batch":    float64(r.traced.batchWire.out) / b,
		"transport.admission_wait_ms":      ms(r.c1.admission-r.c0.admission) / b,
		"transport.errors":                 float64(r.traced.ledger.batchErrs + r.traced.ledger.sessErrs + int(r.c1.srvErrs-r.c0.srvErrs)),
	}
	out["obs.trace_overhead_pct"] = 0
	if p := median(msList(r.plain.batchWall)); p > 0 {
		out["obs.trace_overhead_pct"] = (median(msList(r.traced.batchWall))/p - 1) * 100
	}
	if dt := r.c1.mexpTime - r.c0.mexpTime; dt > 0 {
		out["elgamal.multiexp_items_per_s"] = float64(r.c1.mexpBases-r.c0.mexpBases) / dt.Seconds()
	} else {
		out["elgamal.multiexp_items_per_s"] = 0
	}

	var overhead, roundtrip, coord float64
	for _, root := range r.batches {
		overhead += ms(time.Duration(root.rec.Dur - covered(root.rec.Start, root.end,
			find(root, func(n *node) bool { return phaseSpans[n.rec.Name] }))))
		server := find(root, func(n *node) bool { return n.rec.Name == "transport.batch" && n.rec.Proc != clientProc })
		if len(server) == 0 {
			continue
		}
		client := root
		if c := find(root, func(n *node) bool { return n.rec.Name == "transport.batch" && n.rec.Proc == clientProc }); len(c) > 0 {
			client = c[0]
		}
		roundtrip += ms(time.Duration(client.rec.Dur - covered(client.rec.Start, client.end, server)))
		// A farm leg is one worker session: its shards share the parent
		// (the worker's serve span).
		legs := map[uint64][]*node{}
		for _, s := range server {
			legs[uint64(s.rec.Parent)] = append(legs[uint64(s.rec.Parent)], s)
		}
		if len(legs) > 1 {
			var longest int64
			for _, l := range legs {
				longest = max(longest, covered(root.rec.Start, root.end, l))
			}
			coord += ms(time.Duration(root.rec.Dur - longest))
		}
	}
	out["vc.driver_overhead_ms"] = overhead / b
	out["transport.roundtrip_overhead_ms_per_batch"] = roundtrip / b
	out["farm.coordinator_overhead_ms"] = coord / b

	var hello []float64
	for _, d := range r.dials {
		for _, h := range find(d, func(n *node) bool { return n.rec.Name == "wire.hello_exchange" }) {
			hello = append(hello, ms(time.Duration(h.rec.Dur)))
		}
	}
	out["transport.session_open_ms"] = median(hello)

	var acquire time.Duration
	acquisitions := 0
	for _, root := range r.setupRoots {
		walk(root, func(n *node) {
			if acquireSpans[n.rec.Name] {
				acquire += time.Duration(n.rec.Dur)
				if n.rec.Name != "prover.preprocess" {
					acquisitions++
				}
			}
		})
	}
	out["store.program_acquire_ms"] = 0
	if acquisitions > 0 {
		out["store.program_acquire_ms"] = ms(acquire) / float64(acquisitions)
	}

	var hits, misses, skipped int64
	for _, s := range r.servers {
		hits += s.Counter(transport.MetricCacheHits).Value()
		misses += s.Counter(transport.MetricCacheMisses).Value()
		skipped += s.Counter(transport.MetricHelloSourceSkipped).Value()
	}
	out["transport.cache.hits"] = float64(hits)
	out["transport.cache.misses"] = float64(misses)
	out["transport.hello.source_skipped"] = float64(skipped)

	reg := r.traced.reg
	shards := reg.CounterVec(farm.MetricShards, farm.LabelWorker).Total()
	out["farm.shards_per_batch"] = float64(shards) / b
	out["farm.shard_ms_p50"] = ms(reg.Histogram(farm.MetricSpanShard).Snapshot().Quantile(0.5))
	out["farm.shard.stolen"] = float64(reg.Counter(farm.MetricShardStolen).Value())
	out["farm.shard.requeued"] = float64(reg.Counter(farm.MetricShardRequeued).Value())
	out["farm.reseed_ms_per_shard"] = 0
	if shards > 0 {
		out["farm.reseed_ms_per_shard"] = ms(sum(r.batches, clientProc, "kernel.fixedbase.encrypt_r")) / float64(shards)
	}
	return out
}
