package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/agg"
	"repro/internal/workload"
)

// FuzzIngest sends arbitrary bytes as a POST /ingest body, and the same bytes
// as a /batch body, to a small session, and checks that the server keeps its
// protocol: no panic and no 5xx; every /ingest line is JSON, the last one is
// done or an error with a taxonomy code and the line it stopped at, and no
// line claims more changes applied than the body has lines; /batch answers
// JSON.  The corpus seeds are CDC streams (workload.WriteChanges) and
// malformed lines.
func FuzzIngest(f *testing.F) {
	db := workload.Grid(4, 4, 7)
	for _, n := range []int{1, 8, 40} {
		var body bytes.Buffer
		if err := workload.WriteChanges(&body, db, n, int64(n)); err != nil {
			f.Fatal(err)
		}
		f.Add(body.Bytes())
	}
	for _, seed := range []string{
		"",
		"\n\n",
		"this is not json\n",
		`{"weight":"w","tuple":[0,1],"value":3}` + "\n{",
		`{"weight":"nope","tuple":[0],"value":1}`,
		`{"rel":"E","tuple":[0,99]}`,
		`{"rel":"E","tuple":[0,5]}` + "\n" + `{"rel":"S","tuple":[3],"present":false}`,
		`{"weight":"w","rel":"E","tuple":[0,1]}`,
		`{"session":"s","updates":[{"weight":"w","tuple":[0,1],"value":3}]}`,
		`{"session":"s","updates":[{"rel":"S","tuple":[-1]}]}`,
	} {
		f.Add([]byte(seed))
	}

	srv := New(Options{CacheSize: 4})
	srv.MountDatabaseValue("default", agg.FromStructure(db.A, db.Weights()))
	if _, _, err := srv.CreateSession("s", "default", "sum x, y . [E(x,y) & S(x)] * w(x,y)", "natural", []string{"E", "S"}); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	codes := taxonomyCodes()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest?session=s&wave=3", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("/ingest: status %d, body %q", rec.Code, rec.Body)
		}
		lines := bytes.Count(body, []byte("\n"))
		if len(body) > 0 && body[len(body)-1] != '\n' {
			lines++
		}
		var last ingestAck
		var raw map[string]json.RawMessage
		acks := bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
		for _, line := range acks {
			raw = nil
			if err := json.Unmarshal(line, &raw); err != nil {
				t.Fatalf("/ingest: line %q is not JSON: %v", line, err)
			}
			last = ingestAck{}
			if err := json.Unmarshal(line, &last); err != nil {
				t.Fatalf("/ingest: line %q is not an ack: %v", line, err)
			}
			if last.Applied > int64(lines) {
				t.Fatalf("/ingest: %q claims %d changes applied from %d lines", line, last.Applied, lines)
			}
		}
		switch _, atLine := raw["atLine"]; {
		case last.Done && last.Error == "":
		case last.Error != "" && codes[last.Code] && atLine && last.AtLine <= int64(lines):
		default:
			t.Fatalf("/ingest: last line %q is neither done nor an error with a taxonomy code and atLine", acks[len(acks)-1])
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("/batch: status %d, body %q", rec.Code, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("/batch: status %d answered %q, not JSON", rec.Code, rec.Body)
		}
	})
}

// taxonomyCodes is the set of codes agg.ErrorCode gives the error taxonomy's
// sentinels.
func taxonomyCodes() map[string]bool {
	codes := map[string]bool{}
	for _, kind := range []error{agg.ErrParse, agg.ErrCompile, agg.ErrUnknownSemiring, agg.ErrUnknownDatabase, agg.ErrUnknownSession, agg.ErrSessionExists, agg.ErrSessionBusy, agg.ErrSessionClosed, agg.ErrArgument, agg.ErrUpdate, agg.ErrNotEnumerable} {
		codes[agg.ErrorCode(kind)] = true
	}
	return codes
}

// FuzzQuery sends arbitrary bytes as the body of POST /query, /point and
// /session, and checks that the server answers each without a panic or a
// 5xx, and every refusal with an ErrorBody whose code is in the taxonomy.  A
// session a body creates is deleted after the input, so the run stays
// bounded.  The seeds are a valid body for each route, a /query body that
// still names a worker count, truncated JSON, and unknown semirings,
// databases and sessions.
func FuzzQuery(f *testing.F) {
	for _, seed := range []string{
		`{"expr":"sum x, y . [E(x,y)] * w(x,y)"}`,
		`{"expr":"sum x, y . [E(x,y) & S(x)] * w(x,y)","semiring":"minplus","dynamic":["S"]}`,
		`{"expr":"sum x, y . [E(x,y)] * w(x,y)","workers":8}`,
		`{"expr":"sum x, y . [E(x,y)] * w(x,y)","semiring":"nope"}`,
		`{"db":"nope","expr":"sum x . u(x)"}`,
		`{"session":"s","args":[1]}`,
		`{"session":"s","args":[1,2,3]}`,
		`{"session":"nope","args":[0]}`,
		`{"expr":"sum y . [E(x,y)] * w(x,y)","args":[2]}`,
		`{"name":"t","expr":"sum y . [E(x,y)] * w(x,y)","dynamic":["E"]}`,
		`{"name":"s","expr":"sum x . u(x)"}`,
		`{"name":"t","expr":"sum x . u(x)","semiring":"nope"}`,
		`{"expr":"sum x`,
		`{`,
		``,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}

	db := workload.Grid(4, 4, 7)
	srv := New(Options{CacheSize: 4})
	srv.MountDatabaseValue("default", agg.FromStructure(db.A, db.Weights()))
	if _, _, err := srv.CreateSession("s", "default", "sum y . [E(x,y) & S(x)] * w(x,y)", "natural", []string{"E", "S"}); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	codes := taxonomyCodes()

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, route := range []string{"/query", "/point", "/session"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s: status %d, body %q", route, rec.Code, rec.Body)
			}
			if rec.Code != http.StatusOK {
				var e ErrorBody
				dec := json.NewDecoder(rec.Body)
				dec.DisallowUnknownFields()
				if err := dec.Decode(&e); err != nil || e.Error == "" || !codes[e.Code] {
					t.Fatalf("%s: status %d answered %q, not an ErrorBody with a taxonomy code (%v)", route, rec.Code, rec.Body, err)
				}
				continue
			}
			if route != "/session" {
				continue
			}
			var created sessionResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
				t.Fatalf("/session: %q: %v", rec.Body, err)
			}
			if err := srv.DeleteSession(created.Session); err != nil {
				t.Fatalf("deleting session %q: %v", created.Session, err)
			}
		}
	})
}

// TestIngestOverlongLine: a line longer than the scanner's limit stops the
// ingest with an error naming that line, also when it is the first.
func TestIngestOverlongLine(t *testing.T) {
	srv, ts, _ := newTestServer(t, 4)
	if resp, code := postJSON(t, ts.URL+"/session", map[string]any{"name": "s", "expr": edgeSum}); code != http.StatusOK {
		t.Fatalf("creating session: %v", resp)
	}
	rec := httptest.NewRecorder()
	body := bytes.Repeat([]byte("x"), 1<<20+1)
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest?session=s", bytes.NewReader(body)))
	var last ingestAck
	if err := json.Unmarshal(rec.Body.Bytes(), &last); err != nil {
		t.Fatalf("terminal line %q: %v", rec.Body, err)
	}
	if last.Code != "invalid_argument" || last.AtLine != 1 {
		t.Fatalf("terminal line = %+v, want invalid_argument at line 1", last)
	}
}
