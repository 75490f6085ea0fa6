package simd_test

// The daemon's handling of the sealed binary payloads that carry stored
// results and outcomes: a payload in another format is a per-request or
// per-scenario failure, never a dropped connection or a lost plan.

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"resizecache"
	"resizecache/internal/payload"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/simd"
	"resizecache/internal/simd/wire"
)

// TestRecordRejectsJSONStoredResult: an OpRecord whose Value is a
// StoredResult's JSON document (what a v3 peer sent) gets an error frame
// and records nothing, and the same connection then answers a lookup.
func TestRecordRejectsJSONStoredResult(t *testing.T) {
	addr, _ := startDaemon(t, simd.Options{})
	nc, err := net.Dial("unix", strings.TrimPrefix(addr, "unix:"))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	key := sim.Default("gcc").Key().String()
	doc, err := json.Marshal(runner.StoredResult{Err: "old format"})
	if err != nil {
		t.Fatal(err)
	}
	exchange := func(req wire.Request) wire.Response {
		t.Helper()
		req.V = wire.ProtocolVersion
		if err := wire.WriteFrame(nc, req); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := wire.ReadFrame(nc, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := exchange(wire.Request{ID: 1, Op: wire.OpRecord, Key: key, Value: doc})
	if resp.ID != 1 || resp.Kind != wire.KindError || !strings.Contains(resp.Err, "decode stored result") {
		t.Fatalf("record of a JSON document answered %+v, want a decode error frame", resp)
	}
	resp = exchange(wire.Request{ID: 2, Op: wire.OpLookup, Key: key})
	if resp.ID != 2 || resp.Kind != wire.KindReply || resp.Found {
		t.Fatalf("lookup after the rejected record answered %+v, want a miss reply", resp)
	}
}

// TestPlanRejectsMalformedScenarios: an OpPlan whose scenario payload
// does not decode — a JSON array (what a v4 peer sent), base64 that is
// not, a count its bytes cannot hold — gets a "decode plan" error frame,
// and the same connection then answers a well-formed plan.
func TestPlanRejectsMalformedScenarios(t *testing.T) {
	addr, _ := startDaemon(t, simd.Options{})
	nc, err := net.Dial("unix", strings.TrimPrefix(addr, "unix:"))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	doc, err := json.Marshal([]resizecache.Scenario{{Benchmark: "gcc", Organization: resizecache.SelectiveWays}})
	if err != nil {
		t.Fatal(err)
	}
	var lying payload.Writer
	lying.Uvarint(1 << 40)
	for id, body := range []json.RawMessage{doc, json.RawMessage(`"not*base64!"`), lying.Seal()} {
		req := wire.Request{V: wire.ProtocolVersion, ID: uint64(id + 1), Op: wire.OpPlan, Scenarios: body}
		if err := wire.WriteFrame(nc, req); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := wire.ReadFrame(nc, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != req.ID || resp.Kind != wire.KindError || !strings.HasPrefix(resp.Err, "decode plan: ") {
			t.Fatalf("plan payload %s answered %+v, want a decode plan error frame", body, resp)
		}
	}

	sc := resizecache.Scenario{Benchmark: "m88ksim", Organization: resizecache.SelectiveWays,
		Sides: resizecache.DOnly, Instructions: 20_000}
	plan, err := resizecache.PlanOf(sc)
	if err != nil {
		t.Fatal(err)
	}
	req := wire.Request{V: wire.ProtocolVersion, ID: 9, Op: wire.OpPlan,
		Scenarios: resizecache.MarshalScenarios(plan.Scenarios())}
	if err := wire.WriteFrame(nc, req); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{wire.KindResult, wire.KindDone} {
		var resp wire.Response
		if err := wire.ReadFrame(nc, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != 9 || resp.Kind != kind || resp.Err != "" {
			t.Fatalf("well-formed plan after the rejections answered %+v, want a %s frame", resp, kind)
		}
		if kind == wire.KindResult {
			var o resizecache.Outcome
			if err := o.UnmarshalBinary(resp.Outcome); err != nil || o.DChosen == "" {
				t.Errorf("result frame carries outcome %+v, %v", o, err)
			}
		}
	}
}

// TestRemoteRunIsolatesCorruptOutcome: a daemon whose result frame
// carries an outcome payload that does not decode costs that scenario
// an error, while RemoteSession.Run still delivers every other
// scenario's outcome. The daemon here is a stub that answers the plan
// with hand-written frames.
func TestRemoteRunIsolatesCorruptOutcome(t *testing.T) {
	want := resizecache.Outcome{EDPReductionPct: 12.5, DChosen: "static 4K/2-way"}
	good, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "stub.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer nc.Close()
		var req wire.Request
		if err := wire.ReadFrame(nc, &req); err != nil {
			served <- err
			return
		}
		for _, f := range []wire.Response{
			{Index: 1, Outcome: good, Completed: 1, Total: 2},
			{Index: 0, Outcome: json.RawMessage(`"not*base64!"`), Completed: 2, Total: 2},
			{Kind: wire.KindDone},
		} {
			f.ID = req.ID
			if f.Kind == "" {
				f.Kind = wire.KindResult
			}
			if err := wire.WriteFrame(nc, f); err != nil {
				served <- err
				return
			}
		}
		served <- nil
		// Hold the connection open, as a daemon does, until the client
		// hangs up.
		io.Copy(io.Discard, nc)
	}()

	// The stub answers one submission, so a resubmission would wait
	// forever: fail instead.
	remote, err := resizecache.DialWith("unix:"+sock, resizecache.DialOptions{PlanAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	plan := testPlan(t)
	results := make([]resizecache.Result, plan.Len())
	n := 0
	for r := range remote.Run(context.Background(), plan) {
		results[r.Index] = r
		n++
	}
	if err := <-served; err != nil {
		t.Fatalf("stub daemon: %v", err)
	}
	if n != plan.Len() {
		t.Fatalf("delivered %d results, want %d", n, plan.Len())
	}
	if err := results[0].Err; err == nil || !strings.Contains(err.Error(), "decode remote outcome") {
		t.Errorf("corrupt outcome delivered error %v, want a decode error", err)
	}
	if results[1].Err != nil || !reflect.DeepEqual(results[1].Outcome, want) {
		t.Errorf("intact outcome delivered %+v, %v; want %+v", results[1].Outcome, results[1].Err, want)
	}
}
