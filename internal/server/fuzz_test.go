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

	srv := New(Options{CacheSize: 4, Workers: 1})
	srv.MountDatabaseValue("default", agg.FromStructure(db.A, db.Weights()))
	if _, _, err := srv.CreateSession("s", "default", "sum x, y . [E(x,y) & S(x)] * w(x,y)", "natural", []string{"E", "S"}); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	codes := map[string]bool{}
	for _, kind := range []error{agg.ErrParse, agg.ErrCompile, agg.ErrUnknownSemiring, agg.ErrUnknownDatabase, agg.ErrUnknownSession, agg.ErrSessionExists, agg.ErrSessionBusy, agg.ErrSessionClosed, agg.ErrArgument, agg.ErrUpdate, agg.ErrNotEnumerable} {
		codes[agg.ErrorCode(kind)] = true
	}

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
