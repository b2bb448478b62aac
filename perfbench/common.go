package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"

	"pubsubcd/internal/core"
	"pubsubcd/internal/topology"
	"pubsubcd/internal/workload"
)

// The paper's most common setting (§5): 5 % capacity, β = 2, and the
// simulator's default topology seed for fetch costs.
const (
	capacityFraction = 0.05
	beta             = 2.0
	topologySeed     = 7
)

// step is one entry of the global replay order: a publication or a
// request, by index into the workload's streams.
type step struct {
	pub bool
	idx int32
}

// replayOrder merges publications and requests by time, publications
// first at equal times — the order workload.EventView splits per proxy.
func replayOrder(w *workload.Workload) []step {
	pubs, reqs := w.Publications, w.Requests
	out := make([]step, 0, len(pubs)+len(reqs))
	pi, ri := 0, 0
	for pi < len(pubs) || ri < len(reqs) {
		if pi < len(pubs) && (ri >= len(reqs) || pubs[pi].Time <= reqs[ri].Time) {
			out = append(out, step{pub: true, idx: int32(pi)})
			pi++
			continue
		}
		out = append(out, step{idx: int32(ri)})
		ri++
	}
	return out
}

// versionStride separates the versions of successive replay rounds on
// one broker, which accepts only increasing versions per page. It is
// above the most versions any page gets in a 7-day trace (under 600).
const versionStride = 4096

// bodies hands out page bodies without a copy per version: every
// (page, version) is a slice of one shared backing buffer at its own
// offset, so a stale or wrong version is told apart by its position.
type bodies struct {
	buf []byte
}

const (
	bodyOffsets = 1 << 20
	maxBodyLen  = 8 << 20
)

func newBodies(w *workload.Workload, seed int64) *bodies {
	var maxSize int64
	for _, p := range w.Pages {
		if p.Size > maxSize {
			maxSize = p.Size
		}
	}
	// A fixed length (unless a page outgrows it) keeps the live heap from
	// following the largest page a seed happens to draw.
	if maxSize < maxBodyLen {
		maxSize = maxBodyLen
	}
	buf := make([]byte, maxSize+bodyOffsets)
	g := newRand(seed)
	for i := 0; i+8 <= len(buf); i += 8 {
		v := g.Uint64()
		for k := 0; k < 8; k++ {
			buf[i+k] = byte(v >> (8 * k))
		}
	}
	return &bodies{buf: buf}
}

func bodyOffset(page, version int) int {
	return (page*7919 + version*104729) % bodyOffsets
}

// body returns the body of version v of a page of the given size.
func (b *bodies) body(page, version int, size int64) []byte {
	off := bodyOffset(page, version)
	return b.buf[off : off+int(size) : off+int(size)]
}

// sameSlice reports whether got is exactly the slice want (same backing
// memory and length), which an in-process path returns for a correct
// body.
func sameSlice(got, want []byte) bool {
	return len(got) == len(want) && (len(got) == 0 || &got[0] == &want[0])
}

// pageLabel is the integer label broker.Proxy gives a page ID when it
// calls its strategy: FNV-1a of the decimal ID, 31 bits.
func pageLabel(id string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum64() & 0x7fffffff)
}

// pageIDs returns each page's decimal wire ID and topic.
func pageIDs(w *workload.Workload) (ids, topics []string) {
	ids = make([]string, len(w.Pages))
	topics = make([]string, len(w.Pages))
	for i := range w.Pages {
		ids[i] = strconv.Itoa(i)
		topics[i] = workload.PageTopic(i)
	}
	return ids, topics
}

// generate builds the workload for a trace at a scale (1 = the paper's
// full size) and reports how long generation took.
func generate(trace workload.TraceName, scale int, seed int64) (*workload.Workload, time.Duration, error) {
	cfg := workload.ScaledConfig(trace, scale)
	cfg.Seed = seed
	start := time.Now()
	w, err := workload.Generate(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("generate %s/%d: %w", trace, scale, err)
	}
	return w, time.Since(start), nil
}

// refTally is a reference replay's outcome for one strategy: the same
// quantities sim.Run reports, computed apart from it.
type refTally struct {
	hits, requests                 int64
	pushedPagesAP, pushedBytesAP   int64
	pushedPagesPWN, pushedBytesPWN int64
	fetchedPages, fetchedBytes     int64
	coldMisses                     int64
	perServerRequests              []int64
	// hitAt[s][k] is whether the k-th request at server s hit.
	hitAt [][]bool
	// coreTime is the wall time of the replay, nearly all of it inside
	// strategy calls.
	coreTime time.Duration
}

// referenceReplay replays each proxy's event stream through fresh
// strategies from f. labels[page] is the integer ID the strategy sees;
// nil uses the page index as the simulator does (broker.Proxy hashes
// the decimal ID instead, see pageLabel).
func referenceReplay(w *workload.Workload, f core.Factory, labels []int, keepHits bool) (*refTally, error) {
	view := w.Events()
	caps := view.CacheCapacities(capacityFraction)
	costs, err := topology.FetchCosts(w.Config.Servers, topologySeed)
	if err != nil {
		return nil, err
	}
	t := &refTally{perServerRequests: make([]int64, w.Config.Servers)}
	if keepHits {
		t.hitAt = make([][]bool, w.Config.Servers)
	}
	usesPush := f.UsesPush()
	start := time.Now()
	for s, stream := range view.Streams {
		st, err := f.New(core.Params{Capacity: caps[s], Beta: beta})
		if err != nil {
			return nil, err
		}
		seen := make([]bool, len(w.Pages))
		for _, ev := range stream {
			size := w.Pages[ev.Page].Size
			id := int(ev.Page)
			if labels != nil {
				id = labels[id]
			}
			meta := core.PageMeta{ID: id, Size: size, Cost: costs[s]}
			if !ev.Request {
				if !usesPush {
					continue
				}
				t.pushedPagesAP++
				t.pushedBytesAP += size
				if st.Push(meta, int(ev.Version), int(ev.Subs)) {
					t.pushedPagesPWN++
					t.pushedBytesPWN += size
				}
				continue
			}
			hit, _ := st.Request(meta, int(ev.Version), int(ev.Subs))
			t.requests++
			t.perServerRequests[s]++
			if keepHits {
				t.hitAt[s] = append(t.hitAt[s], hit)
			}
			if hit {
				t.hits++
			} else {
				t.fetchedPages++
				t.fetchedBytes += size
				if !seen[ev.Page] {
					t.coldMisses++
				}
			}
			seen[ev.Page] = true
		}
	}
	t.coreTime = time.Since(start)
	return t, nil
}

// newRand returns the benchmark's own seeded source of draws.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
