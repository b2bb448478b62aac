package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/core"
	"pubsubcd/internal/workload"
)

// Each test runs a check on a correct result, then on one tampered in a
// single place, and expects the check to pass and then fail.

func failed(rep *report, name string) bool {
	for _, c := range rep.checks {
		if c.name == name {
			return !c.ok
		}
	}
	panic("no check named " + name)
}

func TestSimChecksCatchTamperedResults(t *testing.T) {
	w, _, err := generate(workload.TraceNEWS, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	var cells []simCall
	for _, name := range []string{"GD*", "SG2"} {
		f, err := core.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, simCall{w: w, f: f})
	}
	res, _, _, err := simPass(cells, 0)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := simReferences(cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	checkSimPaper(rep, cells, res, refs)
	if !rep.correct() {
		t.Fatalf("untampered results fail: %+v", rep.checks)
	}

	tampers := map[string]func(){
		"sim.matches_reference_replay": func() { res[1].Hits++; res[1].HourlyHits[0]++ }, // one hit moved in
		"sim.per_server_requests":      func() { res[0].PerServerRequests[0]++ },
		"sim.access_only_push_nothing": func() { res[0].PushedPagesAP[0]++ },
		"sim.pwn_traffic_at_most_ap":   func() { res[1].PushedPagesPWN[0] += sum(res[1].PushedPagesAP) + 1 },
		"sim.fig4_push_beats_gdstar":   func() { res[0].Hits = res[0].Requests },
	}
	for name, tamper := range tampers {
		res, _, _, err = simPass(cells, 0)
		if err != nil {
			t.Fatal(err)
		}
		tamper()
		rep := newReport()
		checkSimPaper(rep, cells, res, refs)
		if !failed(rep, name) {
			t.Errorf("%s passed on a tampered result", name)
		}
	}
}

// staleFetcher serves a page's previous version's body under the current
// version, as a proxy with a stale origin would.
type staleFetcher struct {
	b      *broker.Broker
	bodies *bodies
}

func (f staleFetcher) Fetch(id string) (broker.Content, error) {
	c, err := f.b.Fetch(id)
	if err != nil {
		return c, err
	}
	page := 0
	for _, r := range id {
		page = page*10 + int(r-'0')
	}
	c.Body = f.bodies.body(page, c.Version+1, int64(len(c.Body)))
	return c, nil
}

func TestProxyReplayChecksCatchTamperedResults(t *testing.T) {
	newEnv := func() *proxyEnv {
		w, _, err := generate(workload.TraceNEWS, 50, 3)
		if err != nil {
			t.Fatal(err)
		}
		e, err := newProxyEnv(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.reference(); err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := newEnv()
	st, err := e.replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.errors+st.wrongMatched+st.wrongNotified+st.wrongBody != 0 {
		t.Fatalf("untampered replay has faults: %+v", st)
	}

	// One subscription dropped by the broker: a notification goes missing.
	e = newEnv()
	if err := e.b.Unsubscribe(1); err != nil {
		t.Fatal(err)
	}
	if st, err = e.replay(nil); err != nil {
		t.Fatal(err)
	}
	if st.wrongNotified == 0 || st.wrongMatched == 0 {
		t.Errorf("a dropped notification went unnoticed: %+v", st)
	}

	// Proxies served a stale body.
	e = newEnv()
	for s, p := range e.proxies {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := e.factory.New(core.Params{Capacity: e.caps[s], Beta: beta})
		if err != nil {
			t.Fatal(err)
		}
		fetch := broker.WithProxyFetcher(staleFetcher{b: e.b, bodies: e.bodies})
		if e.proxies[s], err = broker.NewProxy(s, e.b, st, e.costs[s], fetch); err != nil {
			t.Fatal(err)
		}
	}
	if st, err = e.replay(nil); err != nil {
		t.Fatal(err)
	}
	if st.wrongBody == 0 {
		t.Errorf("stale bodies went unnoticed: %+v", st)
	}
}

func TestWireChurnChecksCatchTamperedResults(t *testing.T) {
	ctx := context.Background()
	e, _, err := newWireEnv(ctx, 3, filepath.Join(t.TempDir(), "wire"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	g := newRand(3)
	st := e.replay(ctx, g, nil)
	if st.errors+st.wrongMatched+st.late+st.wrongFetch+st.stray+st.gaps != 0 {
		t.Fatalf("untampered replay has faults: %+v", st)
	}

	// A version published behind the benchmark's back: fetches of that
	// page no longer return the newest version the benchmark published.
	page := e.w.Requests[0].Page
	c := broker.Content{ID: e.ids[page], Version: 1 << 30, Topics: e.topics[page : page+1], Body: []byte("x")}
	if _, err := e.b.Publish(c); err != nil {
		t.Fatal(err)
	}
	st = e.replay(ctx, g, nil)
	if st.wrongFetch == 0 && st.errors == 0 {
		t.Errorf("a stale fetch went unnoticed: %+v", st)
	}
}

func TestDeliveryWaiterNeedsEveryNotification(t *testing.T) {
	var d deliveryWaiter
	done := d.expect("7", 3)
	d.notify(broker.Notification{PageID: "7", Version: 3})
	d.setWant(2) // one of the two matched notifications was dropped
	select {
	case <-done:
		t.Fatal("publication counted as delivered with a notification missing")
	case <-time.After(50 * time.Millisecond):
	}
	d.notify(broker.Notification{PageID: "8", Version: 3})
	if _, stray := d.counts(); stray != 1 {
		t.Errorf("notification of another page not counted as stray")
	}
	d.notify(broker.Notification{PageID: "7", Version: 3})
	<-done
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}

// TestBenchmarkJSONListsEveryMetric holds BENCHMARK.json's per-layer list
// to the one traced runs fill in.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var def struct {
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(def.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		if d := def.PerLayer[i]; d.Name != l.name || d.Unit != l.unit || d.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, d, l)
		}
	}
}
