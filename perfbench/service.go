package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"tquad/internal/jobd"
	"tquad/internal/study"
)

// service is an in-process job daemon with its HTTP server, driven by
// one closed-loop client.
type service struct {
	d      *jobd.Daemon
	srv    *jobd.Server
	dir    string
	url    string
	client *http.Client
	openS  float64 // jobd.New: opening (replaying) the data directory
}

func startService(dir string, hooks study.Hooks) (*service, error) {
	t0 := time.Now()
	d, err := jobd.New(jobd.Options{DataDir: dir, Workers: 1, SchedJobs: schedJobs, Hooks: hooks})
	if err != nil {
		return nil, err
	}
	openS := time.Since(t0).Seconds()
	srv, err := jobd.Serve(d, "127.0.0.1:0")
	if err != nil {
		d.Shutdown()
		return nil, err
	}
	return &service{d: d, srv: srv, dir: dir, url: srv.URL(),
		client: &http.Client{Timeout: time.Minute}, openS: openS}, nil
}

func (sv *service) close() {
	sv.client.CloseIdleConnections()
	sv.srv.Close()
	if err := sv.d.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: jobd shutdown: %v\n", err)
	}
}

// submit POSTs a job spec and returns the job's resource path.
func (sv *service) submit(spec jobd.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := sv.client.Post(sv.url+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	return resp.Header.Get("Location"), nil
}

// get fetches one resource, failing on any status but 200.
func (sv *service) get(path string) ([]byte, error) {
	resp, err := sv.client.Get(sv.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, nil
}

// pollEvery is the client's job-status polling period.
const pollEvery = 5 * time.Millisecond

// wait polls a job until it reaches a terminal state.
func (sv *service) wait(loc string) (jobd.Job, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		b, err := sv.get(loc)
		if err != nil {
			return jobd.Job{}, err
		}
		var j jobd.Job
		if err := json.Unmarshal(b, &j); err != nil {
			return jobd.Job{}, err
		}
		switch j.State {
		case jobd.StateSucceeded, jobd.StateFailed, jobd.StateCanceled:
			return j, nil
		}
		if time.Now().After(deadline) {
			return j, fmt.Errorf("job %s still %s after 2m", j.ID, j.State)
		}
		time.Sleep(pollEvery)
	}
}

// jobStats are one service op's per-layer figures.
type jobStats struct {
	submitS, queueWaitS, runS, fetchS float64
	artifactBytes, journalBytes       int64
}

// jobOut is one job as its client saw it.
type jobOut struct {
	wall           float64
	job            jobd.Job
	report, tables []byte
	st             jobStats
}

// jobOp submits one job to sv, waits for it and fetches its report and
// tables.
func jobOp(sv *service, spec jobd.JobSpec, t *tracer, parent, id int) (jobOut, error) {
	var o jobOut
	journal := filepath.Join(sv.dir, "jobs.jsonl")
	jb := fileSize(journal)
	root := t.begin("op", parent, id)
	start := time.Now()
	sp := t.begin("jobd.submit", root, id)
	loc, err := sv.submit(spec)
	t.end(sp)
	o.st.submitS = time.Since(start).Seconds()
	j := &o.job
	if err == nil {
		wp := t.begin("jobd.wait", root, id)
		*j, err = sv.wait(loc)
		t.end(wp)
		t.add("jobd.queue", wp, id, j.Created, j.Started)
		t.add("jobd.run", wp, id, j.Started, j.Finished)
	}
	if err == nil && j.State != jobd.StateSucceeded {
		err = fmt.Errorf("job %s %s: %s", j.ID, j.State, j.Error)
	}
	if err == nil {
		f0 := time.Now()
		fp := t.begin("jobd.fetch", root, id)
		o.report, err = sv.get(loc + "/artifacts/report.txt")
		if err == nil {
			o.tables, err = sv.get(loc + "/artifacts/tables.txt")
		}
		t.end(fp)
		o.st.fetchS = time.Since(f0).Seconds()
	}
	o.wall = time.Since(start).Seconds()
	t.end(root)
	o.st.queueWaitS = j.Started.Sub(j.Created).Seconds()
	o.st.runS = j.Finished.Sub(j.Started).Seconds()
	for _, a := range j.Artifacts {
		o.st.artifactBytes += a.Size
	}
	o.st.journalBytes = fileSize(journal) - jb
	return o, err
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// jobSpec is service_jobs' submission: a small-config two-interval
// sweep with the Table I-IV artifact on.
func jobSpec(p params) jobd.JobSpec {
	return jobd.JobSpec{Config: "small", Slices: p.jobSlices[:]}
}

func (b *bench) opService(t *tracer, id int) (opResult, error) {
	before, err := dirSize(b.svc.dir)
	if err != nil {
		return opResult{}, err
	}
	b.guests.take()
	o, err := jobOp(b.svc, jobSpec(b.p), t, -1, id)
	if err != nil {
		return opResult{}, err
	}
	after, err := dirSize(b.svc.dir)
	if err != nil {
		return opResult{}, err
	}
	cfgs := uint64(len(b.p.jobSlices) + len(tablesConfigs(0)))
	r := opResult{wall: o.wall, instr: cfgs * b.native, disk: after - before, job: &o.st}
	j, report, tables := o.job, o.report, o.tables
	if j.GuestExecutions != 1 {
		return r, fmt.Errorf("job %s ran %d guest executions, want 1", j.ID, j.GuestExecutions)
	}
	if err := b.checkGuests(1); err != nil {
		return r, err
	}
	if !bytes.Equal(report, b.wantReport) {
		return r, fmt.Errorf("job %s report.txt differs from the reference (%d vs %d bytes)", j.ID, len(report), len(b.wantReport))
	}
	if len(tables) == 0 {
		return r, fmt.Errorf("job %s tables.txt is empty", j.ID)
	}
	return r, b.sameAsFirst("tables.txt", tables)
}
