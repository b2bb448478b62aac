package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/journal"
	"pubsubcd/internal/match"
	"pubsubcd/internal/workload"
)

// wire-churn settings: a tenth of the NEWS trace (about 19,500
// subscriptions and 22,500 publishes and fetches), one unsubscribe plus
// re-subscribe after every churnEvery trace operations, and a deadline
// each publication's notifications must all arrive within.
const (
	wireScale      = 10
	churnEvery     = 16
	notifyDeadline = 10 * time.Second
)

// heldSub is one subscription the benchmark holds through the subscriber
// client; engID is its twin in the traced run's standalone engine.
type heldSub struct {
	page, proxy int
	id, engID   int64
}

// wireEnv is a durable broker served over loopback TCP, with one
// publisher client and one subscriber client.
type wireEnv struct {
	w           *workload.Workload
	order       []step
	ids, topics []string
	bodies      *bodies
	dir         string
	b           *broker.Broker
	srv         *broker.Server
	pub, sub    *broker.Client
	held        []heldSub
	heldPerPage []int
	current     []int // newest version published, per page
	rounds      int
	waiter      *deliveryWaiter
	gaps        atomic.Int64
	// Traced-run seams; nil when untraced.
	conn *countingConn
	jfs  *timedFS
}

// deliveryWaiter tracks the notifications of the one publication in
// flight.
type deliveryWaiter struct {
	mu          sync.Mutex
	id          string
	version     int
	got, want   int
	done        chan struct{}
	lastArrival time.Time
	stray       int64 // notifications of no publication in flight
	total       int64
}

func (d *deliveryWaiter) expect(id string, version int) chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.id, d.version, d.got, d.want = id, version, 0, -1
	d.done = make(chan struct{})
	return d.done
}

func (d *deliveryWaiter) notify(n broker.Notification) {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.total++
	if n.PageID != d.id || n.Version != d.version {
		d.stray++
		return
	}
	d.got++
	d.lastArrival = now
	if d.got == d.want {
		close(d.done)
	}
}

// setWant records the matched count the publish reported.
func (d *deliveryWaiter) setWant(want int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.want = want
	if d.got == want {
		close(d.done)
	}
}

func (d *deliveryWaiter) counts() (total, stray int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total, d.stray
}

func (d *deliveryWaiter) arrival() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastArrival
}

// newWireEnv generates the trace, opens the durable broker under a fresh
// directory in base, serves it on loopback and subscribes every
// subscription through the subscriber client.
func newWireEnv(ctx context.Context, seed int64, base string, traced bool) (*wireEnv, time.Duration, error) {
	w, gen, err := generate(workload.TraceNEWS, wireScale, seed)
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(base, "wire-churn-")
	if err != nil {
		return nil, 0, err
	}
	e := &wireEnv{
		w:           w,
		order:       replayOrder(w),
		bodies:      newBodies(w, seed),
		dir:         dir,
		heldPerPage: make([]int, len(w.Pages)),
		current:     make([]int, len(w.Pages)),
		waiter:      &deliveryWaiter{},
	}
	e.ids, e.topics = pageIDs(w)
	opts := []broker.BrokerOption{
		broker.WithDataDir(dir),
		// Interval, not always: on this benchmark's shared disk an fsync
		// per subscribe spread churn and set-up times across runs by far
		// more than any bound a change could be held to.
		broker.WithFsyncPolicy(journal.FsyncInterval),
		// No periodic snapshot: its timing would depend on the run's
		// length. Close still writes one.
		broker.WithSnapshotInterval(-1),
	}
	var clientOpts []broker.ClientOption
	if traced {
		e.jfs = &timedFS{FS: journal.OSFS}
		e.conn = &countingConn{}
		opts = append(opts, broker.WithJournalFS(e.jfs))
		clientOpts = append(clientOpts, broker.WithDialFunc(e.conn.dial))
	}
	if e.b, err = broker.Open(opts...); err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	if e.srv, err = broker.NewServer(e.b, "127.0.0.1:0"); err != nil {
		e.b.Close()
		os.RemoveAll(dir)
		return nil, 0, err
	}
	if e.pub, err = broker.Dial(ctx, e.srv.Addr()); err != nil {
		e.close()
		return nil, 0, err
	}
	clientOpts = append(clientOpts,
		broker.WithNotify(e.waiter.notify),
		broker.WithNotifyGap(func(missed int64) { e.gaps.Add(missed) }))
	if e.sub, err = broker.Dial(ctx, e.srv.Addr(), clientOpts...); err != nil {
		e.close()
		return nil, 0, err
	}
	for page, row := range w.Subscriptions {
		for s, n := range row {
			for k := int32(0); k < n; k++ {
				id, err := e.sub.Subscribe(ctx, s, e.topics[page:page+1], nil)
				if err != nil {
					e.close()
					return nil, 0, fmt.Errorf("subscribe: %w", err)
				}
				e.held = append(e.held, heldSub{page: page, proxy: s, id: id})
				e.heldPerPage[page]++
			}
		}
	}
	return e, gen, nil
}

// close drains the server (which keeps connection-held subscriptions on
// a durable broker), closes the clients and the broker, and leaves the
// journal directory in place.
func (e *wireEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	if e.srv != nil {
		err = e.srv.Shutdown(ctx)
	}
	for _, c := range []*broker.Client{e.pub, e.sub} {
		if c != nil {
			c.Close()
		}
	}
	if cerr := e.b.Close(); err == nil {
		err = cerr
	}
	return err
}

// wireRound is the outcome of one replay of the scaled trace.
type wireRound struct {
	ops                         int64
	busy, cpu                   time.Duration
	deliver, fetch, churn, ack  samples
	ackToDeliver                samples
	appends                     int64
	notifications               int64
	errors, wrongMatched, late  int64
	wrongFetch, stray, gaps     int64
	publishes, fetches, churned int64
}

// wireTrace is the traced run's standalone engine mirroring the held
// subscriptions, and its timings.
type wireTrace struct {
	rec                           *recorder
	eng                           *match.Engine
	refs                          []match.MatchRef
	match, subscribe, unsubscribe hist
}

// replay runs the scaled trace once over the wire, closed loop with one
// operation outstanding.
func (e *wireEnv) replay(ctx context.Context, g *rand.Rand, tr *wireTrace) wireRound {
	var st wireRound
	off := e.rounds * versionStride
	e.rounds++
	w := e.w
	var rec *recorder
	if tr != nil {
		rec = tr.rec
	}
	total0, stray0 := e.waiter.counts()
	gaps0 := e.gaps.Load()
	timer := time.NewTimer(notifyDeadline)
	defer timer.Stop()
	for i, s := range e.order {
		if i%churnEvery == churnEvery-1 {
			e.churnOne(ctx, g, tr, &st)
		}
		if s.pub {
			p := w.Publications[s.idx]
			v := p.Version + off
			c := broker.Content{
				ID:      e.ids[p.Page],
				Version: v,
				Topics:  e.topics[p.Page : p.Page+1],
				Body:    e.bodies.body(p.Page, v, w.Pages[p.Page].Size),
			}
			done := e.waiter.expect(c.ID, v)
			sp, start := rec.open("client.publish_until_delivered", -1)
			matched, err := e.pub.Publish(ctx, c)
			ack := time.Since(start)
			if err != nil {
				st.errors++
				matched = 0
			}
			e.waiter.setWant(matched)
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(notifyDeadline)
			select {
			case <-done:
			case <-timer.C:
				st.late++
			}
			end := time.Now()
			last := e.waiter.arrival()
			if matched > 0 {
				end = last
				st.deliver.add(last.Sub(start))
				st.ackToDeliver.add(last.Sub(start) - ack)
			}
			st.ack.add(ack)
			st.busy += rec.setDur(sp, end.Sub(start))
			st.publishes++
			if matched != e.heldPerPage[p.Page] {
				st.wrongMatched++
			}
			e.current[p.Page] = v
			if tr != nil {
				ms := time.Now()
				tr.refs = tr.eng.AppendMatchRefs(tr.refs[:0], match.Event{ID: c.ID, Topics: c.Topics})
				tr.match.observe(time.Since(ms).Nanoseconds())
			}
			continue
		}
		q := w.Requests[s.idx]
		sp, start := rec.open("client.fetch", -1)
		c, err := e.pub.Fetch(ctx, e.ids[q.Page])
		d := rec.close(sp, start)
		st.fetch.add(d)
		st.busy += d
		st.fetches++
		if err != nil {
			st.errors++
			continue
		}
		v := e.current[q.Page]
		if c.Version != v || !bytes.Equal(c.Body, e.bodies.body(q.Page, v, w.Pages[q.Page].Size)) {
			st.wrongFetch++
		}
	}
	st.ops = st.publishes + st.fetches + st.churned
	total, stray := e.waiter.counts()
	st.notifications, st.stray = total-total0, stray-stray0
	st.gaps = e.gaps.Load() - gaps0
	return st
}

// churnOne unsubscribes one held subscription, drawn from g, and
// subscribes it again.
func (e *wireEnv) churnOne(ctx context.Context, g *rand.Rand, tr *wireTrace, st *wireRound) {
	h := &e.held[g.Intn(len(e.held))]
	var rec *recorder
	if tr != nil {
		rec = tr.rec
	}
	sp, start := rec.open("client.churn", -1)
	err := e.sub.Unsubscribe(ctx, h.id)
	if err == nil {
		e.heldPerPage[h.page]--
		var id int64
		id, err = e.sub.Subscribe(ctx, h.proxy, e.topics[h.page:h.page+1], nil)
		if err == nil {
			h.id = id
			e.heldPerPage[h.page]++
		}
	}
	d := rec.close(sp, start)
	st.churn.add(d)
	st.busy += d
	st.churned++
	st.appends += 2
	if err != nil {
		st.errors++
	}
	if tr != nil {
		ts := time.Now()
		uerr := tr.eng.Unsubscribe(h.engID)
		tr.unsubscribe.observe(time.Since(ts).Nanoseconds())
		ts = time.Now()
		id, serr := tr.eng.Subscribe(match.Subscription{Proxy: h.proxy, Topics: e.topics[h.page : h.page+1]})
		tr.subscribe.observe(time.Since(ts).Nanoseconds())
		if uerr != nil || serr != nil {
			st.errors++
		}
		h.engID = id
	}
}

func runWireChurn(o options) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	base := filepath.Join(o.outDir, "tmp")
	var setups []float64
	var genS samples
	var env *wireEnv
	for r := 0; r < setupReps; r++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(env.dir)
			env = nil
		}
		liveHeapMiB()
		start := cpuNow()
		var gen time.Duration
		var err error
		if env, gen, err = newWireEnv(ctx, o.seed, base, o.trace); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuNow() - start).Seconds())
		genS.add(gen)
	}
	defer os.RemoveAll(env.dir)
	rep.set("setup_s", median(setups), "s")
	rep.set("heap_live_mb", liveHeapMiB(), "MiB")
	rep.check("wire.binary_codec_negotiated", env.pub.Codec() == "binary" && env.sub.Codec() == "binary",
		"negotiated %s and %s", env.pub.Codec(), env.sub.Codec())

	g := newRand(o.seed)
	var faults wireRound
	measure := func(tr *wireTrace) (rounds []wireRound, mem memDelta) {
		var busy time.Duration
		for busy.Seconds() < o.seconds {
			mem.start()
			cpu := cpuNow()
			st := env.replay(ctx, g, tr)
			st.cpu = cpuNow() - cpu
			mem.stop()
			busy += st.busy
			rounds = append(rounds, st)
			faults.errors += st.errors
			faults.wrongMatched += st.wrongMatched
			faults.late += st.late
			faults.wrongFetch += st.wrongFetch
			faults.stray += st.stray
			faults.gaps += st.gaps
			rep.attempted += st.ops
		}
		return rounds, mem
	}
	combine := func(rounds []wireRound) (all wireRound) {
		for _, st := range rounds {
			all.ops += st.ops
			all.busy += st.busy
			all.cpu += st.cpu
			all.appends += st.appends
			all.notifications += st.notifications
			all.deliver = append(all.deliver, st.deliver...)
			all.fetch = append(all.fetch, st.fetch...)
			all.churn = append(all.churn, st.churn...)
			all.ack = append(all.ack, st.ack...)
			all.ackToDeliver = append(all.ackToDeliver, st.ackToDeliver...)
		}
		return all
	}

	rounds, mem := measure(nil)
	all := combine(rounds)
	fmt.Printf("wire-churn: %d rounds, %d ops, %d notifications; deliver p50 %.1f us p99 %.1f us (n=%d); fetch p50 %.1f us p99 %.1f us (n=%d); churn p50 %.1f us p99 %.1f us (n=%d)\n",
		len(rounds), all.ops, all.notifications, all.deliver.us(0.5), all.deliver.us(0.99), len(all.deliver),
		all.fetch.us(0.5), all.fetch.us(0.99), len(all.fetch), all.churn.us(0.5), all.churn.us(0.99), len(all.churn))

	var tr *wireTrace
	var traced wireRound
	var reads, bytesRead int64
	var writes, syncs samples
	if o.trace {
		tr = &wireTrace{rec: newRecorder(), eng: match.NewEngine()}
		for i := range env.held {
			h := &env.held[i]
			start := time.Now()
			id, err := tr.eng.Subscribe(match.Subscription{Proxy: h.proxy, Topics: env.topics[h.page : h.page+1]})
			tr.subscribe.observe(time.Since(start).Nanoseconds())
			if err != nil {
				return nil, err
			}
			h.engID = id
		}
		r0, b0 := env.conn.reads.Load(), env.conn.bytes.Load()
		env.jfs.start()
		trounds, _ := measure(tr)
		traced = combine(trounds)
		reads, bytesRead = env.conn.reads.Load()-r0, env.conn.bytes.Load()-b0
		writes, syncs = env.jfs.collect()
	}

	if err := env.close(); err != nil {
		return nil, err
	}
	reopened, err := broker.Open(broker.WithDataDir(env.dir), broker.WithSnapshotInterval(-1))
	if err != nil {
		return nil, fmt.Errorf("reopen journal: %w", err)
	}
	recovered := reopened.Subscriptions()
	if err := reopened.Close(); err != nil {
		return nil, err
	}

	rep.check("wire.no_errors", faults.errors == 0, "%d operations returned an error", faults.errors)
	rep.check("wire.matched_equals_held", faults.wrongMatched == 0, "%d publishes matched another count than the subscriptions held on the topic", faults.wrongMatched)
	rep.check("wire.notifications_by_deadline", faults.late == 0 && faults.stray == 0,
		"%d publications missed the %v deadline, %d notifications arrived for no publication in flight", faults.late, notifyDeadline, faults.stray)
	rep.check("wire.no_gap_markers", faults.gaps == 0, "%d notifications reported missed by gap markers", faults.gaps)
	rep.check("wire.fetch_newest_version", faults.wrongFetch == 0, "%d fetches returned another version or body", faults.wrongFetch)
	rep.check("wire.journal_recovers_held", recovered == len(env.held), "reopened journal holds %d subscriptions, want %d", recovered, len(env.held))

	if !o.trace {
		// As on proxy-replay, each delivered notification counts as an
		// operation: the fan-out is most of the work and its amount
		// differs from seed to seed.
		rep.set("ops_per_s", float64(all.ops+all.notifications)/all.cpu.Seconds(), "1/s")
		rep.set("op_p50_us", all.fetch.us(0.5), "us")
		return rep, nil
	}
	rep.metrics = make(map[string]metric)
	rep.set("workload.generate_s", median(genS)/1e9, "s")
	rep.set("match.match_ns", tr.match.quantile(0.5), "ns")
	rep.set("match.subscribe_ns", tr.subscribe.quantile(0.5), "ns")
	rep.set("match.unsubscribe_ns", tr.unsubscribe.quantile(0.5), "ns")
	rep.set("transport.publish_ack_us", traced.ack.us(0.5), "us")
	rep.set("transport.ack_to_deliver_us", traced.ackToDeliver.us(0.5), "us")
	rep.set("transport.deliver_us_p50", traced.deliver.us(0.5), "us")
	rep.set("transport.deliver_us_p99", traced.deliver.us(0.99), "us")
	rep.set("transport.fetch_us_p50", traced.fetch.us(0.5), "us")
	rep.set("transport.fetch_us_p99", traced.fetch.us(0.99), "us")
	rep.set("transport.churn_us_p50", traced.churn.us(0.5), "us")
	rep.set("transport.churn_us_p99", traced.churn.us(0.99), "us")
	rep.set("transport.reads_per_notification", float64(reads)/float64(traced.notifications), "count")
	rep.set("transport.bytes_per_notification", float64(bytesRead)/float64(traced.notifications), "B")
	rep.set("journal.write_us", writes.us(0.5), "us")
	rep.set("journal.sync_us", syncs.us(0.5), "us")
	rep.set("journal.appends_per_sync", float64(traced.appends)/float64(len(syncs)), "ratio")
	mem.report(rep)
	rep.set("bench.tracing_overhead", (float64(all.ops+all.notifications)/all.cpu.Seconds())/(float64(traced.ops+traced.notifications)/traced.cpu.Seconds()), "ratio")
	return rep, finishTrace(tr.rec, o, "wire-churn")
}

// countingConn counts the reads and bytes the subscriber client's
// connection takes from the socket.
type countingConn struct {
	reads, bytes atomic.Int64
}

func (c *countingConn) dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: conn, c: c}, nil
}

type countedConn struct {
	net.Conn
	c *countingConn
}

func (cc *countedConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.reads.Add(1)
	cc.c.bytes.Add(int64(n))
	return n, err
}

// timedFS times the journal's writes and syncs while on.
type timedFS struct {
	journal.FS
	mu            sync.Mutex
	on            bool
	writes, syncs samples
}

func (fs *timedFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: fs}, nil
}

// start begins timing, discarding what came before.
func (fs *timedFS) start() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.on, fs.writes, fs.syncs = true, nil, nil
}

func (fs *timedFS) collect() (writes, syncs samples) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writes, fs.syncs
}

func (fs *timedFS) observe(dst *samples, d time.Duration) {
	fs.mu.Lock()
	if fs.on {
		dst.add(d)
	}
	fs.mu.Unlock()
}

type timedFile struct {
	journal.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.observe(&f.fs.writes, time.Since(start))
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.observe(&f.fs.syncs, time.Since(start))
	return err
}
