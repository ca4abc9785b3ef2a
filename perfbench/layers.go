package main

// layerReport assembles the per-layer metrics of a traced run: counters
// and session-reported timings from the untraced half (plain), probes and
// span self times from the traced half (tr).
func layerReport(plain, tr *phase) *report {
	rep := newReport(plain, tr)
	perSession := func(v float64) float64 { return ratio(v, float64(plain.completed)) }
	sps := func(ph *phase) float64 { return float64(ph.completed) / ph.elapsed.Seconds() }
	med := func(ph *phase, layer string) float64 { return median(ph.layers[layer]) }

	rep.set("trace.overhead_ratio", ratio(sps(plain), sps(tr)), "ratio")
	rep.set("failed_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")

	rep.set("user.decide_ms_p50", med(plain, "user.decide_ms"), "ms")
	rep.set("core.major_ms_p50", med(plain, "core.major_ms"), "ms")
	rep.set("core.iterations_per_session", perSession(float64(plain.iterations)), "count")
	rep.set("core.views_per_session", perSession(float64(plain.shown)), "count")
	rep.set("core.answered_ratio", ratio(float64(plain.answered), float64(plain.shown)), "ratio")
	rep.set("core.projection_ms", med(tr, "core.projection_ms"), "ms")
	rep.set("core.profile_ms", med(tr, "core.profile_ms"), "ms")

	rep.set("kde.estimate_ms_p50", med(tr, "kde.estimate_ms"), "ms")
	rep.set("grid.region_ms_p50", med(tr, "grid.region_ms"), "ms")
	rep.set("grid.cells_examined_p50", med(tr, "grid.cells_examined"), "count")
	rep.set("grid.previews_per_view", mean(tr.layers["grid.previews_per_view"]), "count")
	rep.set("grid.select_ms_p50", med(tr, "grid.select_ms"), "ms")

	rep.set("dataset.stats_ms", med(tr, "dataset.stats_ms"), "ms")
	rep.set("dataset.compose_ms", med(tr, "dataset.compose_ms"), "ms")
	rep.set("dataset.narrow_ms", med(tr, "dataset.narrow_ms"), "ms")
	rep.set("linalg.eigen_ms", med(tr, "linalg.eigen_ms"), "ms")

	rep.set("index.build_ms", med(tr, "index.build_ms"), "ms")
	rep.set("index.derive_ms", med(tr, "index.derive_ms"), "ms")
	rep.set("index.knn_axis_ms_p50", med(tr, "index.knn_axis_ms"), "ms")
	rep.set("index.refine_ratio", med(tr, "index.refine_ratio"), "ratio")
	rep.set("index.builds_per_session", perSession(float64(plain.index.Builds)), "count")
	rep.set("index.derives_per_session", perSession(float64(plain.index.Derives)), "count")
	rep.set("index.cache_hits_per_session", perSession(float64(plain.index.CacheHits)), "count")

	rep.set("shard.stats_ms", med(tr, "shard.stats_ms"), "ms")
	rep.set("shard.nearest_ms", med(tr, "shard.nearest_ms"), "ms")
	rep.set("shard.estimate2d_ms", med(tr, "shard.estimate2d_ms"), "ms")
	rep.set("shard.overhead_ratio", med(tr, "shard.overhead_ratio"), "ratio")

	rep.set("runtime.gc_cycles_per_session", perSession(float64(plain.gcCycles)), "count")
	rep.set("runtime.gc_pause_ms_per_session", perSession(ms(plain.gcPause)), "ms")

	endpointP50 := func(name string) float64 {
		if plain.wire == nil {
			return 0
		}
		return median(plain.wire.samples(name))
	}
	rep.set("server.create_ms_p50", endpointP50("create"), "ms")
	rep.set("server.preview_ms_p50", endpointP50("preview"), "ms")
	rep.set("server.decision_ms_p50", endpointP50("decision"), "ms")
	rep.set("server.result_ms_p50", endpointP50("result"), "ms")
	var non2xx, viewKB float64
	for _, ph := range []*phase{plain, tr} {
		if ph.wire != nil {
			non2xx += float64(ph.wire.non2xx)
		}
	}
	if plain.wire != nil {
		viewKB = median(plain.wire.viewBytes)
	}
	rep.set("server.non2xx", non2xx, "count")
	rep.set("wire.view_kb", viewKB, "kB")

	var meaningful, natP, natR []float64
	for _, q := range plain.quality {
		if q.meaningful {
			meaningful = append(meaningful, 1)
			natP = append(natP, q.natPrecision)
			natR = append(natR, q.natRecall)
		} else {
			meaningful = append(meaningful, 0)
		}
	}
	rep.set("quality.meaningful_ratio", mean(meaningful), "ratio")
	rep.set("quality.natural_precision", mean(natP), "ratio")
	rep.set("quality.natural_recall", mean(natR), "ratio")

	self := selfTimes(tr.spans)
	for _, name := range selfSpans {
		rep.set("self."+name+"_ms_per_session", selfMSPerSession(tr.spans, self, name, tr.completed), "ms")
	}
	return rep
}

// selfSpans are the span names whose self time the traced run reports.
var selfSpans = []string{"session", "major", "view", "decide", "preview", "probe"}
