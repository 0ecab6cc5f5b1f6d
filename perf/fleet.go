package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
)

const (
	fleetReplicas = 2
	fleetDB       = "g"
	batchChanges  = 16 // changes per POST /batch
)

// The request kinds of one block of 8: six point reads, one batch of
// writes, one cached closed query.
const (
	reqPoint = iota
	reqBatch
	reqQuery
)

var fleetBlock = [8]int{reqPoint, reqPoint, reqPoint, reqBatch, reqPoint, reqPoint, reqPoint, reqQuery}

// fleetMix drives an in-process fleet of two replicas behind the router
// with one closed-loop keep-alive client.  The client owns one session on
// each replica and alternates between them block by block, so both replicas
// and both router→replica connections stay in use.  (Two concurrent clients
// and the in-process servers saturate a 2-core box: identical code then
// spread 7–10 % between runs against 3–6 % with one client.)
type fleetMix struct {
	sz       sizes
	in       *inputs
	fl       *fleet.LocalFleet
	http     *http.Client
	base     string
	sessions []*fleetSession
	body     bytes.Buffer
	resp     bytes.Buffer
}

// fleetSession is one server-side session with its own key stream; ks.u
// mirrors the weights the session holds.
type fleetSession struct {
	name string
	ks   *keyStream
}

func newFleetMix(sz sizes, in *inputs) (instance, error) {
	db, err := loadDatabase(in)
	if err != nil {
		return nil, err
	}
	fl, err := fleet.StartLocal(fleetReplicas, fleet.LocalOptions{
		Configure: func(_ int, s *server.Server) { s.MountDatabaseValue(fleetDB, db) },
	})
	if err != nil {
		return nil, err
	}
	f := &fleetMix{
		sz: sz, in: in, fl: fl, base: fl.URL(),
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute},
	}
	for i := 0; i < fleetReplicas; i++ {
		s := &fleetSession{name: sessionOn(fl, i), ks: newKeyStream(in, in.seed+int64(i)+1, batchChanges)}
		f.sessions = append(f.sessions, s)
		body := fmt.Sprintf(`{"name":%q,"db":%q,"expr":%q}`, s.name, fleetDB, queryPoint)
		if err := f.post("/session", []byte(body)); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// sessionOn picks a session name the ring places on the given replica,
// whatever ports the listeners drew.
func sessionOn(fl *fleet.LocalFleet, replica int) string {
	for i := 0; ; i++ {
		name := "s" + strconv.Itoa(replica) + "-" + strconv.Itoa(i)
		if fl.Router.OwnerOf(fleet.SessionShardKey(name)) == replica {
			return name
		}
	}
}

// post sends one request and leaves the body of the response in f.resp.
func (f *fleetMix) post(path string, body []byte) error {
	resp, err := f.http.Post(f.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	f.resp.Reset()
	if _, err := f.resp.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %d: %s", path, resp.StatusCode, bytes.TrimSpace(f.resp.Bytes()))
	}
	return nil
}

// request builds the next request of the given kind outside the timer, times
// the round trip, and holds the response to the reference.
func (f *fleetMix) request(r *rec, s *fleetSession, kind int) {
	var reply struct {
		Value   string `json:"value"`
		Applied int    `json:"applied"`
	}
	call := func(span, path string) (us float64, ok bool) {
		us, err := r.timed(span, 1, func() error { return f.post(path, f.body.Bytes()) })
		return us, err == nil && json.Unmarshal(f.resp.Bytes(), &reply) == nil
	}
	f.body.Reset()
	switch kind {
	case reqPoint:
		x := s.ks.nextKeys(1)[0]
		fmt.Fprintf(&f.body, `{"session":%q,"args":[%d]}`, s.name, x)
		us, ok := call("client.point", "/point")
		r.done(&r.op, us, 1, ok && reply.Value == f.in.pointAt(s.ks.u, x))
	case reqBatch:
		fmt.Fprintf(&f.body, `{"session":%q,"updates":[`, s.name)
		for i, ch := range s.ks.nextChanges(batchChanges) {
			if i > 0 {
				f.body.WriteByte(',')
			}
			fmt.Fprintf(&f.body, `{"weight":"u","tuple":[%d],"value":%d}`, ch.Tuple[0], ch.Value)
		}
		f.body.WriteString("]}")
		us, ok := call("client.batch", "/batch")
		r.done(&r.aux, us, 1, ok && reply.Applied == batchChanges)
	default:
		s.ks.log.ints(-2)
		fmt.Fprintf(&f.body, `{"db":%q,"expr":%q}`, fleetDB, queryEdges)
		us, ok := call("client.query", "/query")
		r.done(nil, us, 1, ok && reply.Value == f.in.edgeRef)
	}
}

func (f *fleetMix) round(r *rec) {
	for b := 0; b < f.sz.blocks; b++ {
		for _, kind := range fleetBlock {
			f.request(r, f.sessions[b%len(f.sessions)], kind)
		}
	}
}

func (f *fleetMix) finish(r *rec) fingerprint {
	fp := fingerprint{Input: f.in.hash()}
	for _, s := range f.sessions {
		for _, x := range s.ks.nextKeys(finishPoints / fleetReplicas) {
			var reply struct {
				Value string `json:"value"`
			}
			err := f.post("/point", fmt.Appendf(nil, `{"session":%q,"args":[%d]}`, s.name, x))
			good := err == nil && json.Unmarshal(f.resp.Bytes(), &reply) == nil && reply.Value == f.in.pointAt(s.ks.u, x)
			r.done(nil, 0, 1, good)
			fp.Final = append(fp.Final, reply.Value)
		}
		fp.Ops += s.ks.log.sum()
	}
	return fp
}

func (f *fleetMix) close() {
	f.http.CloseIdleConnections()
	f.fl.Close()
}
