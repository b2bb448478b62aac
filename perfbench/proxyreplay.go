package main

import (
	"fmt"
	"strconv"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/core"
	"pubsubcd/internal/match"
	"pubsubcd/internal/topology"
	"pubsubcd/internal/workload"
)

// proxyStrategy is the placement strategy every proxy runs.
const proxyStrategy = "DC-LAP"

// The decision probe is a fixed NEWS trace, the same for every seed, that
// each proxy-replay round replays after the seeded trace. Its requests
// whose hit or miss differs from the reference replay are the run's
// failed operations: their number is a property of the program alone, so
// it is the same share of the attempted operations in every run.
const (
	probeSeed  = 1
	probeScale = 10
)

// proxyEnv is one trace served by an in-process broker and 100 proxies.
type proxyEnv struct {
	w           *workload.Workload
	order       []step
	ids, topics []string
	labels      []int
	bodies      *bodies
	b           *broker.Broker
	delivered   int64
	subsPerPage []int
	caps        []int64
	costs       []float64
	factory     core.Factory
	proxies     []*broker.Proxy
	rounds      int
	// ref[s][k] is the reference replay's hit or miss for the k-th
	// request at proxy s.
	ref [][]bool
	// refHitRatio is the reference replay's (the simulator's) hit ratio.
	refHitRatio float64
}

// newProxyEnv builds the broker, subscribes every subscription of w and
// attaches the proxies.
func newProxyEnv(w *workload.Workload, seed int64) (*proxyEnv, error) {
	f, err := core.Lookup(proxyStrategy)
	if err != nil {
		return nil, err
	}
	costs, err := topology.FetchCosts(w.Config.Servers, topologySeed)
	if err != nil {
		return nil, err
	}
	e := &proxyEnv{
		w:           w,
		order:       replayOrder(w),
		bodies:      newBodies(w, seed),
		b:           broker.New(),
		subsPerPage: make([]int, len(w.Pages)),
		caps:        w.Events().CacheCapacities(capacityFraction),
		costs:       costs,
		factory:     f,
	}
	e.ids, e.topics = pageIDs(w)
	e.labels = make([]int, len(w.Pages))
	for i, id := range e.ids {
		e.labels[i] = pageLabel(id)
	}
	count := broker.NotifierFunc(func(broker.Notification) { e.delivered++ })
	user := 0
	for page, row := range w.Subscriptions {
		for s, n := range row {
			for k := int32(0); k < n; k++ {
				sub := match.Subscription{Proxy: s, Subscriber: strconv.Itoa(user), Topics: e.topics[page : page+1]}
				if _, err := e.b.Subscribe(sub, count); err != nil {
					return nil, fmt.Errorf("subscribe: %w", err)
				}
				user++
			}
			e.subsPerPage[page] += int(n)
		}
	}
	if err := e.attach(nil); err != nil {
		return nil, err
	}
	return e, nil
}

// attach replaces the proxies with fresh ones, so each round starts from
// empty caches as the reference replay does. With tr non-nil, the
// proxies' strategies and fetch path are wrapped to time each call.
func (e *proxyEnv) attach(tr *proxyTrace) error {
	for _, p := range e.proxies {
		if err := p.Close(); err != nil {
			return err
		}
	}
	e.proxies = make([]*broker.Proxy, e.w.Config.Servers)
	for s := range e.proxies {
		st, err := e.factory.New(core.Params{Capacity: e.caps[s], Beta: beta})
		if err != nil {
			return err
		}
		var opts []broker.ProxyOption
		if tr != nil {
			st = &timedStrategy{Strategy: st, tr: tr}
			opts = append(opts, broker.WithProxyFetcher(&timedFetcher{b: e.b, tr: tr}))
		}
		if e.proxies[s], err = broker.NewProxy(s, e.b, st, e.costs[s], opts...); err != nil {
			return err
		}
	}
	return nil
}

// reference computes the per-request reference decisions, labelling
// pages as broker.Proxy does.
func (e *proxyEnv) reference() error {
	ref, err := referenceReplay(e.w, e.factory, e.labels, true)
	if err != nil {
		return err
	}
	e.ref = ref.hitAt
	e.refHitRatio = float64(ref.hits) / float64(ref.requests)
	return nil
}

// roundStats is the outcome of one replay of the trace.
type roundStats struct {
	publishes, requests int64
	notifications       int64
	busy, cpu           time.Duration
	publish, request    samples
	hits, mismatches    int64
	// Output faults, each of which fails the run.
	errors, wrongMatched, wrongBody, wrongNotified int64
}

// replay runs the trace once, in time order on this goroutine: each
// publication as Broker.Publish, each request as Proxy.Request.
func (e *proxyEnv) replay(tr *proxyTrace) (roundStats, error) {
	var st roundStats
	if e.rounds > 0 || tr != nil {
		if err := e.attach(tr); err != nil {
			return st, err
		}
	}
	off := e.rounds * versionStride
	e.rounds++
	w := e.w
	current := make([]int, len(w.Pages))
	lastHits := make([]int64, w.Config.Servers)
	nextReq := make([]int, w.Config.Servers)
	var wantNotified int64
	delivered0 := e.delivered
	cpu0 := cpuNow()
	for _, s := range e.order {
		if s.pub {
			p := w.Publications[s.idx]
			v := p.Version + off
			c := broker.Content{
				ID:      e.ids[p.Page],
				Version: v,
				Topics:  e.topics[p.Page : p.Page+1],
				Body:    e.bodies.body(p.Page, v, w.Pages[p.Page].Size),
			}
			sp, start := int32(-1), time.Now()
			if tr != nil {
				tr.pushNs = 0
				sp, start = tr.rec.open("broker.publish", -1)
			}
			matched, err := e.b.Publish(c)
			d := time.Since(start)
			if tr != nil {
				tr.endPublish(sp, d, matched, c)
			}
			st.busy += d
			st.publish.add(d)
			st.publishes++
			if err != nil {
				st.errors++
			}
			if matched != e.subsPerPage[p.Page] {
				st.wrongMatched++
			}
			wantNotified += int64(e.subsPerPage[p.Page])
			current[p.Page] = v
			continue
		}
		q := w.Requests[s.idx]
		px := e.proxies[q.Server]
		sp, start := int32(-1), time.Now()
		if tr != nil {
			sp, start = tr.rec.open("proxy.request", -1)
			tr.reqSpan = sp
		}
		body, err := px.Request(e.ids[q.Page])
		d := time.Since(start)
		st.busy += d
		st.request.add(d)
		st.requests++
		hits := px.Stats().Hits
		hit := hits > lastHits[q.Server]
		lastHits[q.Server] = hits
		if tr != nil {
			tr.endRequest(sp, d, hit)
		}
		if err != nil {
			st.errors++
		}
		if !sameSlice(body, e.bodies.body(q.Page, current[q.Page], w.Pages[q.Page].Size)) {
			st.wrongBody++
		}
		if hit {
			st.hits++
		}
		if hit != e.ref[q.Server][nextReq[q.Server]] {
			st.mismatches++
		}
		nextReq[q.Server]++
	}
	st.cpu = cpuNow() - cpu0
	st.notifications = e.delivered - delivered0
	if e.delivered-delivered0 != wantNotified {
		st.wrongNotified = wantNotified - (e.delivered - delivered0)
	}
	return st, nil
}

// proxyTrace times the calls into each layer during a traced round.
type proxyTrace struct {
	rec                  *recorder
	push, request, fetch hist
	match, fanout        hist
	hitNs, missNs        samples
	offered, stored      int64
	pushNs               int64 // strategy push time inside the current publish
	// reqSpan is the open proxy.request span, the parent of its fetch.
	reqSpan int32
	// eng is a standalone engine holding the same subscriptions, on which
	// each publication's matching is timed apart from the broker.
	eng  *match.Engine
	refs []match.MatchRef
}

// endPublish closes a publish span and times the same matching on the
// standalone engine; the publish time left after matching and strategy
// pushes is the broker's fan-out.
func (t *proxyTrace) endPublish(sp int32, d time.Duration, matched int, c broker.Content) {
	if sp >= 0 {
		t.rec.spans[sp].dur = d
	}
	ms := time.Now()
	t.refs = t.eng.AppendMatchRefs(t.refs[:0], match.Event{ID: c.ID, Topics: c.Topics})
	matchNs := time.Since(ms).Nanoseconds()
	t.match.observe(matchNs)
	if matched > 0 {
		t.fanout.observe((d.Nanoseconds() - matchNs - t.pushNs) / int64(matched))
	}
}

func (t *proxyTrace) endRequest(sp int32, d time.Duration, hit bool) {
	if sp >= 0 {
		t.rec.spans[sp].dur = d
	}
	if hit {
		t.hitNs.add(d)
	} else {
		t.missNs.add(d)
	}
	t.reqSpan = -1
}

// timedStrategy is the core.Strategy handed to a traced proxy.
type timedStrategy struct {
	core.Strategy
	tr *proxyTrace
}

func (s *timedStrategy) Push(p core.PageMeta, version, subs int) bool {
	start := time.Now()
	stored := s.Strategy.Push(p, version, subs)
	d := time.Since(start).Nanoseconds()
	s.tr.push.observe(d)
	s.tr.pushNs += d
	s.tr.offered++
	if stored {
		s.tr.stored++
	}
	return stored
}

func (s *timedStrategy) Request(p core.PageMeta, version, subs int) (bool, bool) {
	start := time.Now()
	hit, stored := s.Strategy.Request(p, version, subs)
	s.tr.request.observe(time.Since(start).Nanoseconds())
	return hit, stored
}

// timedFetcher is the fetch path handed to a traced proxy.
type timedFetcher struct {
	b  *broker.Broker
	tr *proxyTrace
}

func (f *timedFetcher) Fetch(pageID string) (broker.Content, error) {
	sp, start := f.tr.rec.open("broker.fetch", f.tr.reqSpan)
	c, err := f.b.Fetch(pageID)
	f.tr.fetch.observe(f.tr.rec.close(sp, start).Nanoseconds())
	return c, err
}

func runProxyReplay(o options) (*report, error) {
	rep := newReport()
	var setups []float64
	var genS samples
	var env *proxyEnv
	for r := 0; r < setupReps; r++ {
		env = nil
		liveHeapMiB()
		start := cpuNow()
		w, gen, err := generate(workload.TraceNEWS, 1, o.seed)
		if err != nil {
			return nil, err
		}
		if env, err = newProxyEnv(w, o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuNow() - start).Seconds())
		genS.add(gen)
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("heap_live_mb", liveHeapMiB(), "MiB")

	pw, _, err := generate(workload.TraceNEWS, probeScale, probeSeed)
	if err != nil {
		return nil, err
	}
	probe, err := newProxyEnv(pw, probeSeed)
	if err != nil {
		return nil, err
	}
	if err := env.reference(); err != nil {
		return nil, err
	}
	if err := probe.reference(); err != nil {
		return nil, err
	}

	var faults roundStats
	tally := func(st roundStats) {
		faults.errors += st.errors
		faults.wrongMatched += st.wrongMatched
		faults.wrongBody += st.wrongBody
		faults.wrongNotified += st.wrongNotified
	}
	var probeMismatch []int64
	// measure runs whole rounds — the seeded trace, then the probe — until
	// the seeded replays have been busy for the run's length.
	measure := func(tr *proxyTrace) (main []roundStats, mem memDelta, err error) {
		var busy time.Duration
		for busy.Seconds() < o.seconds {
			mem.start()
			st, err := env.replay(tr)
			mem.stop()
			if err != nil {
				return nil, mem, err
			}
			busy += st.busy
			main = append(main, st)
			tally(st)
			pst, err := probe.replay(nil)
			if err != nil {
				return nil, mem, err
			}
			tally(pst)
			probeMismatch = append(probeMismatch, pst.mismatches)
			rep.attempted += st.publishes + st.requests + pst.publishes + pst.requests
			rep.failed += pst.mismatches
		}
		return main, mem, nil
	}
	rounds, mem, err := measure(nil)
	if err != nil {
		return nil, err
	}
	// ops_per_s counts each delivered notification as an operation beside
	// publishes and requests: the fan-out is most of the replay's work, and
	// how much of it a trace holds differs from seed to seed.
	var publish, request samples
	var ops int64
	var cpu time.Duration
	for _, st := range rounds {
		publish = append(publish, st.publish...)
		request = append(request, st.request...)
		ops += st.publishes + st.requests + st.notifications
		cpu += st.cpu
	}
	last := rounds[len(rounds)-1]
	liveRatio := float64(last.hits) / float64(last.requests)
	fmt.Printf("proxy-replay: %d rounds; publish p50 %.2f us p99 %.2f us (n=%d); request p50 %.3f us p99 %.3f us (n=%d)\n",
		len(rounds), publish.us(0.5), publish.us(0.99), len(publish), request.us(0.5), request.us(0.99), len(request))
	fmt.Printf("proxy-replay: live hit ratio %.4f, simulator %.4f, %d of %d requests decided differently; probe trace: %v differ per round\n",
		liveRatio, env.refHitRatio, last.mismatches, last.requests, probeMismatch[0])

	stable := true
	for _, m := range probeMismatch {
		stable = stable && m == probeMismatch[0]
	}
	rep.check("proxy.no_errors", faults.errors == 0, "%d publish or request errors", faults.errors)
	rep.check("proxy.matched_equals_subscriptions", faults.wrongMatched == 0, "%d publishes matched a count other than the page's subscriptions", faults.wrongMatched)
	rep.check("proxy.notifications_delivered", faults.wrongNotified == 0, "%d notifications missing", faults.wrongNotified)
	rep.check("proxy.bodies_newest_version", faults.wrongBody == 0, "%d requests returned another body than the newest version's", faults.wrongBody)
	rep.check("proxy.probe_mismatches_repeat", stable, "probe mismatches differ between rounds: %v", probeMismatch)

	if !o.trace {
		rep.set("ops_per_s", float64(ops)/cpu.Seconds(), "1/s")
		rep.set("op_p50_us", request.us(0.5), "us")
		return rep, nil
	}

	// Traced run: a standalone engine gets the same subscriptions, then
	// whole rounds with every proxy's strategy and fetch path wrapped.
	tr := &proxyTrace{rec: newRecorder(), eng: match.NewEngine(), reqSpan: -1}
	var subscribe hist
	if err := loadEngine(env.w, tr.eng, &subscribe); err != nil {
		return nil, err
	}
	traced, _, err := measure(tr)
	if err != nil {
		return nil, err
	}
	var tops int64
	var tcpu time.Duration
	var tpublish, trequest samples
	for _, st := range traced {
		tops += st.publishes + st.requests + st.notifications
		tcpu += st.cpu
		tpublish = append(tpublish, st.publish...)
		trequest = append(trequest, st.request...)
	}
	unsubscribe, err := churnEngine(tr.eng, &subscribe, o.seed)
	if err != nil {
		return nil, err
	}
	rep.metrics = make(map[string]metric)
	rep.set("workload.generate_s", median(genS)/1e9, "s")
	rep.set("core.push_ns", tr.push.quantile(0.5), "ns")
	rep.set("core.request_ns", tr.request.quantile(0.5), "ns")
	rep.set("core.push_stored_ratio", float64(tr.stored)/float64(tr.offered), "ratio")
	rep.set("match.match_ns", tr.match.quantile(0.5), "ns")
	rep.set("match.subscribe_ns", subscribe.quantile(0.5), "ns")
	rep.set("match.unsubscribe_ns", unsubscribe.quantile(0.5), "ns")
	rep.set("broker.fanout_ns_per_notification", tr.fanout.quantile(0.5), "ns")
	rep.set("broker.fetch_ns", tr.fetch.quantile(0.5), "ns")
	rep.set("broker.publish_us_p50", tpublish.us(0.5), "us")
	rep.set("broker.publish_us_p99", tpublish.us(0.99), "us")
	rep.set("proxy.request_us_p50", trequest.us(0.5), "us")
	rep.set("proxy.request_us_p99", trequest.us(0.99), "us")
	rep.set("proxy.request_hit_ns", quantile(tr.hitNs, 0.5), "ns")
	rep.set("proxy.request_miss_ns", quantile(tr.missNs, 0.5), "ns")
	rep.set("proxy.hit_ratio", liveRatio, "ratio")
	rep.set("proxy.decision_mismatches", float64(last.mismatches), "count")
	mem.report(rep)
	rep.set("bench.tracing_overhead", (float64(ops)/cpu.Seconds())/(float64(tops)/tcpu.Seconds()), "ratio")
	return rep, finishTrace(tr.rec, o, "proxy-replay")
}

// loadEngine subscribes every subscription of w into eng, timing each
// insert.
func loadEngine(w *workload.Workload, eng *match.Engine, subscribe *hist) error {
	user := 0
	for page, row := range w.Subscriptions {
		topic := []string{workload.PageTopic(page)}
		for s, n := range row {
			for k := int32(0); k < n; k++ {
				sub := match.Subscription{Proxy: s, Subscriber: strconv.Itoa(user), Topics: topic}
				start := time.Now()
				_, err := eng.Subscribe(sub)
				subscribe.observe(time.Since(start).Nanoseconds())
				if err != nil {
					return err
				}
				user++
			}
		}
	}
	return nil
}

// churnEngine unsubscribes and re-subscribes a seeded sample of eng's
// subscriptions, timing each call.
func churnEngine(eng *match.Engine, subscribe *hist, seed int64) (*hist, error) {
	subs, _ := eng.Dump()
	g := newRand(seed)
	unsubscribe := new(hist)
	for i := 0; i < 4096 && len(subs) > 0; i++ {
		sub := subs[g.Intn(len(subs))]
		start := time.Now()
		err := eng.Unsubscribe(sub.ID)
		unsubscribe.observe(time.Since(start).Nanoseconds())
		if err != nil {
			continue // drawn twice; already gone
		}
		sub.ID = 0
		start = time.Now()
		_, err = eng.Subscribe(sub)
		subscribe.observe(time.Since(start).Nanoseconds())
		if err != nil {
			return nil, err
		}
	}
	return unsubscribe, nil
}
