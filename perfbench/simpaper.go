package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"pubsubcd/internal/core"
	"pubsubcd/internal/sim"
	"pubsubcd/internal/topology"
	"pubsubcd/internal/workload"
)

// simTraces are the paper's two request traces, both at full scale.
var simTraces = []workload.TraceName{workload.TraceNEWS, workload.TraceALTERNATIVE}

// simCall is one (trace, strategy) cell of a sim-paper pass.
type simCall struct {
	w      *workload.Workload
	f      core.Factory
	events int64
}

// simPass runs every cell once through sim.Run at the given parallelism
// (0 = GOMAXPROCS), returning the results in cell order and each call's
// wall and CPU time.
func simPass(cells []simCall, parallelism int) ([]*sim.Result, []time.Duration, []time.Duration, error) {
	results := make([]*sim.Result, len(cells))
	durs := make([]time.Duration, len(cells))
	cpus := make([]time.Duration, len(cells))
	for i, c := range cells {
		opts := sim.DefaultOptions()
		opts.CapacityFraction = capacityFraction
		opts.Beta = beta
		opts.TopologySeed = topologySeed
		opts.Parallelism = parallelism
		start, cpu := time.Now(), cpuNow()
		res, err := sim.Run(c.w, c.f, opts)
		durs[i], cpus[i] = time.Since(start), cpuNow()-cpu
		if err != nil {
			return nil, nil, nil, fmt.Errorf("sim.Run %s/%s: %w", c.w.Config.Trace(), c.f.Name, err)
		}
		results[i] = res
	}
	return results, durs, cpus, nil
}

// simSetup generates both traces and their per-proxy event views.
func simSetup(seed int64) (ws []*workload.Workload, gen, events time.Duration, err error) {
	for _, tr := range simTraces {
		w, d, err := generate(tr, 1, seed)
		if err != nil {
			return nil, 0, 0, err
		}
		gen += d
		start := time.Now()
		w.Events()
		events += time.Since(start)
		ws = append(ws, w)
	}
	return ws, gen, events, nil
}

func runSimPaper(o options) (*report, error) {
	rep := newReport()
	var setups []float64
	var genS, evS samples
	var ws []*workload.Workload
	for r := 0; r < setupReps; r++ {
		ws = nil // let the previous set-up go before timing the next
		liveHeapMiB()
		start := cpuNow()
		var gen, ev time.Duration
		var err error
		ws, gen, ev, err = simSetup(o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (cpuNow() - start).Seconds())
		genS.add(gen)
		evS.add(ev)
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("heap_live_mb", liveHeapMiB(), "MiB")

	var cells []simCall
	for _, w := range ws {
		var events int64
		for _, s := range w.Events().Streams {
			events += int64(len(s))
		}
		for _, f := range core.Catalog() {
			cells = append(cells, simCall{w: w, f: f, events: events})
		}
	}

	// measure runs whole passes until they have taken the run's length.
	// The rates are per CPU-second; perEvent holds, per pass, the mean over
	// strategies of each strategy's CPU time per proxy event on both
	// traces, so every strategy weighs the same however many events it
	// replays.
	measure := func() (first []*sim.Result, opsPerS float64, perEvent samples, passes int, mem memDelta, err error) {
		var events int64
		var busy, cpu time.Duration
		for busy.Seconds() < o.seconds {
			mem.start()
			res, durs, cpus, err := simPass(cells, 0)
			mem.stop()
			if err != nil {
				return nil, 0, nil, 0, mem, err
			}
			stratCPU := make(map[string]time.Duration)
			stratEvents := make(map[string]int64)
			for i, d := range durs {
				busy += d
				cpu += cpus[i]
				events += cells[i].events
				stratCPU[cells[i].f.Name] += cpus[i]
				stratEvents[cells[i].f.Name] += cells[i].events
			}
			var meanNs float64
			for name, c := range stratCPU {
				meanNs += float64(c.Nanoseconds()) / float64(stratEvents[name]) / float64(len(stratCPU))
			}
			perEvent = append(perEvent, meanNs)
			if first == nil {
				first = res
			} else if i, diff := diffResults(first, res); diff != "" {
				rep.check("sim.repeat_identical", false, "%s/%s: %s", cells[i].w.Config.Trace(), cells[i].f.Name, diff)
			}
			passes++
		}
		return first, float64(events) / cpu.Seconds(), perEvent, passes, mem, nil
	}

	first, opsPerS, perEvent, passes, mem, err := measure()
	if err != nil {
		return nil, err
	}
	rep.attempted = int64(passes * len(cells))
	fmt.Printf("sim-paper: %d passes of %d sim.Run calls; %.4g events per CPU-second; mean CPU time per event over strategies %.0f ns (median of %d passes)\n",
		passes, len(cells), opsPerS, quantile(perEvent, 0.5), len(perEvent))

	// The traced run replays on one goroutine, so the reference replay's
	// time is comparable with the sequential sim.Run pass it is taken from.
	par := workers()
	if o.trace {
		par = 1
	}
	refs, err := simReferences(cells, par)
	if err != nil {
		return nil, err
	}
	checkSimPaper(rep, cells, first, refs)

	if !o.trace {
		rep.set("ops_per_s", opsPerS, "1/s")
		rep.set("op_p50_us", perEvent.us(0.5), "us")
		return rep, nil
	}

	// Traced run: the same passes with a span around every sim.Run call,
	// then a sequential pass and a per-call timed reference replay.
	rec := newRecorder()
	var tracedEvents int64
	var tracedBusy, tracedCPU time.Duration
	perStrategy := make(map[string]samples)
	for tracedBusy.Seconds() < o.seconds {
		byName := make(map[string]time.Duration)
		for _, c := range cells {
			opts := sim.DefaultOptions()
			opts.CapacityFraction, opts.Beta, opts.TopologySeed = capacityFraction, beta, topologySeed
			cpu := cpuNow()
			sp, start := rec.open("sim.run/"+c.f.Name, -1)
			_, err := sim.Run(c.w, c.f, opts)
			d := rec.close(sp, start)
			tracedCPU += cpuNow() - cpu
			if err != nil {
				return nil, err
			}
			tracedBusy += d
			tracedEvents += c.events
			byName[c.f.Name] += d
		}
		for name, d := range byName {
			s := perStrategy[name]
			s.add(d)
			perStrategy[name] = s
		}
	}
	tracedOps := float64(tracedEvents) / tracedCPU.Seconds()

	_, seqDurs, _, err := simPass(cells, 1)
	if err != nil {
		return nil, err
	}
	var seq, parallel, refCore time.Duration
	for i := range cells {
		seq += seqDurs[i]
		refCore += refs[i].coreTime
	}
	for _, d := range perStrategy {
		parallel += time.Duration(median(append(samples(nil), d...)))
	}

	push, request, offered, stored, err := timedCoreReplay(ws[0])
	if err != nil {
		return nil, err
	}
	rep.metrics = make(map[string]metric)
	rep.set("workload.generate_s", median(genS)/1e9, "s")
	rep.set("workload.events_s", median(evS)/1e9, "s")
	for _, f := range core.Catalog() {
		rep.set("sim.run_s."+strings.ReplaceAll(f.Name, "*", "star"), median(perStrategy[f.Name])/1e9, "s")
	}
	rep.set("sim.self_s", (seq - refCore).Seconds(), "s")
	rep.set("sim.parallel_speedup", seq.Seconds()/parallel.Seconds(), "ratio")
	rep.set("core.push_ns", push.quantile(0.5), "ns")
	rep.set("core.request_ns", request.quantile(0.5), "ns")
	rep.set("core.push_stored_ratio", float64(stored)/float64(offered), "ratio")
	mem.report(rep)
	rep.set("bench.tracing_overhead", opsPerS/tracedOps, "ratio")
	fmt.Printf("sim-paper traced: sequential pass %.2fs, reference replay core time %.2fs, %d core push / %d request samples\n",
		seq.Seconds(), refCore.Seconds(), push.n, request.n)
	return rep, finishTrace(rec, o, "sim-paper")
}

// simReferences replays every cell apart from sim.Run, on n goroutines,
// one cell per goroutine at a time.
func simReferences(cells []simCall, n int) ([]*refTally, error) {
	refs := make([]*refTally, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int, len(cells)) // holds every cell index
	for i := range cells {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = referenceReplay(cells[i].w, cells[i].f, nil, false)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// diffResults compares two passes' results cell by cell and names the
// first difference.
func diffResults(a, b []*sim.Result) (int, string) {
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x.Hits != y.Hits || x.Requests != y.Requests:
			return i, fmt.Sprintf("hits/requests %d/%d then %d/%d", x.Hits, x.Requests, y.Hits, y.Requests)
		case sum(x.PushedBytesAP) != sum(y.PushedBytesAP) || sum(x.PushedBytesPWN) != sum(y.PushedBytesPWN) || sum(x.FetchedBytes) != sum(y.FetchedBytes):
			return i, "traffic differs between passes"
		}
	}
	return 0, ""
}

// checkSimPaper holds sim.Run's results against the reference replays
// and against the workload itself.
func checkSimPaper(rep *report, cells []simCall, res []*sim.Result, refs []*refTally) {
	var mismatch, perServer, accessOnly, pwn []string
	gdstar := make(map[*workload.Workload]float64)
	for i, c := range cells {
		r, ref := res[i], refs[i]
		cell := fmt.Sprintf("%s/%s", c.w.Config.Trace(), c.f.Name)
		got := [8]int64{r.Hits, r.Requests, sum(r.PushedPagesAP), sum(r.PushedBytesAP), sum(r.PushedPagesPWN), sum(r.PushedBytesPWN), sum(r.FetchedPages), sum(r.FetchedBytes)}
		want := [8]int64{ref.hits, ref.requests, ref.pushedPagesAP, ref.pushedBytesAP, ref.pushedPagesPWN, ref.pushedBytesPWN, ref.fetchedPages, ref.fetchedBytes}
		if got != want {
			mismatch = append(mismatch, fmt.Sprintf("%s got %v want %v", cell, got, want))
		}
		counts := make([]int64, c.w.Config.Servers)
		for _, q := range c.w.Requests {
			counts[q.Server]++
		}
		for s := range counts {
			if r.PerServerRequests[s] != counts[s] {
				perServer = append(perServer, fmt.Sprintf("%s server %d: %d want %d", cell, s, r.PerServerRequests[s], counts[s]))
				break
			}
		}
		if !c.f.UsesPush() {
			if pairs := distinctPairs(c.w); sum(r.PushedPagesAP) != 0 || r.ColdMisses != pairs {
				accessOnly = append(accessOnly, fmt.Sprintf("%s pushed %d cold %d want 0 and %d", cell, sum(r.PushedPagesAP), r.ColdMisses, pairs))
			}
		}
		if r.TotalTrafficBytes(sim.PushWhenNecessary) > r.TotalTrafficBytes(sim.AlwaysPush) ||
			r.TotalTraffic(sim.PushWhenNecessary) > r.TotalTraffic(sim.AlwaysPush) {
			pwn = append(pwn, cell)
		}
		if c.f.Name == "GD*" {
			gdstar[c.w] = r.HitRatio()
		}
	}
	var order []string
	for i, c := range cells {
		if c.f.UsesPush() && res[i].HitRatio() <= gdstar[c.w] {
			order = append(order, fmt.Sprintf("%s/%s %.4f <= GD* %.4f", c.w.Config.Trace(), c.f.Name, res[i].HitRatio(), gdstar[c.w]))
		}
	}
	rep.check("sim.matches_reference_replay", len(mismatch) == 0, "%v", mismatch)
	rep.check("sim.per_server_requests", len(perServer) == 0, "%v", perServer)
	rep.check("sim.access_only_push_nothing", len(accessOnly) == 0, "%v", accessOnly)
	rep.check("sim.pwn_traffic_at_most_ap", len(pwn) == 0, "%v", pwn)
	rep.check("sim.fig4_push_beats_gdstar", len(order) == 0, "%v", order)
}

// distinctPairs counts the distinct (page, server) pairs requested.
func distinctPairs(w *workload.Workload) int64 {
	seen := make(map[[2]int]bool)
	for _, q := range w.Requests {
		seen[[2]int{q.Page, q.Server}] = true
	}
	return int64(len(seen))
}

// timedCoreReplay replays one trace through every catalog strategy,
// timing each strategy call.
func timedCoreReplay(w *workload.Workload) (push, request *hist, offered, stored int64, err error) {
	push, request = new(hist), new(hist)
	view := w.Events()
	caps := view.CacheCapacities(capacityFraction)
	costs, err := topology.FetchCosts(w.Config.Servers, topologySeed)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	for _, f := range core.Catalog() {
		for s, stream := range view.Streams {
			st, err := f.New(core.Params{Capacity: caps[s], Beta: beta})
			if err != nil {
				return nil, nil, 0, 0, err
			}
			for _, ev := range stream {
				meta := core.PageMeta{ID: int(ev.Page), Size: w.Pages[ev.Page].Size, Cost: costs[s]}
				if !ev.Request {
					if !f.UsesPush() {
						continue
					}
					start := time.Now()
					ok := st.Push(meta, int(ev.Version), int(ev.Subs))
					push.observe(time.Since(start).Nanoseconds())
					offered++
					if ok {
						stored++
					}
					continue
				}
				start := time.Now()
				st.Request(meta, int(ev.Version), int(ev.Subs))
				request.observe(time.Since(start).Nanoseconds())
			}
		}
	}
	return push, request, offered, stored, nil
}
