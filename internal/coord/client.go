package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// APIError is a coordinator-level rejection (a decoded {"error": ...}
// response). Transport failures stay ordinary errors; the distinction
// drives retry policy — transport errors and 5xx retry with backoff,
// 4xx/409 are definitive.
type APIError struct {
	// StatusCode is the HTTP status of the rejection.
	StatusCode int
	// Msg is the coordinator's error message.
	Msg string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("coordinator: %s (HTTP %d)", e.Msg, e.StatusCode)
}

// Retryable reports whether an error from a Client call is worth
// retrying: transport failures (coordinator unreachable, connection
// reset) and 5xx responses are; 4xx rejections — bad request, unknown
// point, lost lease, conflicting result — are definitive.
func Retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.StatusCode >= 500
	}
	return err != nil
}

// Client is a typed coordinator API client. Methods are single-shot
// (one HTTP round trip); the retry loops with jittered exponential
// backoff live in RunPlan and Worker, built on Backoff.
type Client struct {
	// URL is the coordinator base URL, e.g. "http://host:8080".
	URL string
	// HTTP is the underlying client; nil uses a 30s-timeout default.
	HTTP *http.Client
	// PollInterval is RunPlan's result-poll cadence; 0 means 250ms.
	PollInterval time.Duration
	// Log, when non-nil, receives one-line progress notes.
	Log io.Writer
}

// NewClient returns a client for the coordinator at url.
func NewClient(url string) *Client {
	return &Client{URL: url}
}

func (c *Client) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// do sends one request — req as a JSON POST body, or a GET when req is
// nil — reads the reply whole, which hands the connection back to the
// pool, and decodes it into resp (nil ignores it). A non-200 reply
// becomes an *APIError.
func (c *Client) do(path string, req, resp any) error {
	hc := c.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	var r *http.Response
	var err error
	if req == nil {
		r, err = hc.Get(c.URL + path)
	} else {
		var body []byte
		if body, err = json.Marshal(req); err != nil {
			return fmt.Errorf("coord: marshal request: %w", err)
		}
		r, err = hc.Post(c.URL+path, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return fmt.Errorf("coord: %s: %w", path, err)
	}
	body, err := readBody(r.Body, r.ContentLength)
	_ = r.Body.Close() // read, not written: nothing to report
	if r.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		msg := fmt.Sprintf("%s: unexpected status", path)
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &APIError{StatusCode: r.StatusCode, Msg: msg}
	}
	if err == nil && resp != nil {
		err = decode(body, resp)
	}
	if err != nil {
		return fmt.Errorf("coord: %s: read response: %w", path, err)
	}
	return nil
}

// SubmitPlan registers the plan's points with the coordinator.
func (c *Client) SubmitPlan(plan sweep.Plan) (PlanResponse, error) {
	return c.submitPlan(plan, plan.IDs())
}

// submitPlan registers the plan digest-first: its IDs alone, and only
// if the coordinator reports some of them unknown — it holds neither a
// record nor a definition — once more with exactly those definitions
// attached. A plan the coordinator has seen before travels as IDs only.
func (c *Client) submitPlan(plan sweep.Plan, ids []string) (PlanResponse, error) {
	req := PlanRequest{Name: plan.Name, IDs: ids}
	var resp PlanResponse
	if err := c.do("/v1/plan", req, &resp); err != nil || len(resp.Unknown) == 0 {
		return resp, err
	}
	index := make(map[string]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	for _, id := range resp.Unknown {
		i, ok := index[id]
		if !ok {
			return PlanResponse{}, fmt.Errorf("coord: coordinator asked for point %s, which plan %s does not contain", id, plan.Name)
		}
		req.Points = append(req.Points, sweep.PlanPoint{ID: id, Label: plan.Points[i].Label, Config: plan.Points[i].Config})
	}
	resp = PlanResponse{}
	if err := c.do("/v1/plan", req, &resp); err != nil {
		return PlanResponse{}, err
	}
	if len(resp.Unknown) > 0 {
		return PlanResponse{}, fmt.Errorf("coord: coordinator still reports %d points of plan %s unknown after their definitions were uploaded", len(resp.Unknown), plan.Name)
	}
	return resp, nil
}

// Lease requests one point of work for the named worker.
func (c *Client) Lease(worker string) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.do("/v1/lease", LeaseRequest{Worker: worker}, &resp)
	return resp, err
}

// Renew heartbeats a held lease.
func (c *Client) Renew(id, token string) error {
	return c.do("/v1/renew", RenewRequest{ID: id, Token: token}, nil)
}

// SubmitResult delivers one completed record.
func (c *Client) SubmitResult(id, token string, rec sweep.Record) (ResultResponse, error) {
	var resp ResultResponse
	err := c.do("/v1/result", ResultRequest{ID: id, Token: token, Record: rec}, &resp)
	return resp, err
}

// Results looks up the given point IDs in the coordinator's cache.
func (c *Client) Results(ids []string) (ResultsResponse, error) {
	var resp ResultsResponse
	err := c.do("/v1/results", ResultsRequest{IDs: ids}, &resp)
	return resp, err
}

// Status fetches /statusz.
func (c *Client) Status() (Status, error) {
	var st Status
	err := c.do("/statusz", nil, &st)
	return st, err
}

// RunPlan is the fleet-served analogue of sweep.Run: submit the plan,
// then poll the result cache until every point is completed or failed,
// returning results in plan order. Already-computed points come back on
// the first poll without any simulation (the cache path); fresh points
// wait on the worker fleet. Transport failures retry forever with
// jittered exponential backoff — a restarting coordinator resumes the
// same queue, so waiting is correct — until ctx is cancelled;
// coordinator rejections (version skew, conflicts) abort.
func (c *Client) RunPlan(ctx context.Context, plan sweep.Plan) ([]core.PointResult, error) {
	ids := plan.IDs() // hashed once: submission and polling share them
	bo := NewBackoff("runplan")
	var submitted PlanResponse
	for {
		var err error
		submitted, err = c.submitPlan(plan, ids)
		if err == nil {
			break
		}
		if !Retryable(err) {
			return nil, err
		}
		c.logf("coord: submit plan %s: %v (retrying)", plan.Name, err)
		if !sleepCtx(ctx, bo.Next()) {
			return nil, ctx.Err()
		}
	}
	c.logf("coord: plan %s: %d points (%d cached, %d queued, %d failed)",
		plan.Name, submitted.Total, submitted.Done, submitted.Queued, submitted.Failed)

	positions := map[string][]int{} // a plan may repeat a point; fill every slot
	for i, id := range ids {
		positions[id] = append(positions[id], i)
	}
	results := make([]core.PointResult, len(plan.Points))
	pending := make([]string, 0, len(positions))
	for id := range positions {
		pending = append(pending, id)
	}
	poll := c.PollInterval
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	bo.Reset()
	for len(pending) > 0 {
		resp, err := c.Results(pending)
		if err != nil {
			if !Retryable(err) {
				return nil, err
			}
			c.logf("coord: poll results: %v (retrying)", err)
			if !sleepCtx(ctx, bo.Next()) {
				return nil, ctx.Err()
			}
			continue
		}
		bo.Reset()
		var still []string
		for _, id := range pending {
			if rec, ok := resp.Records[id]; ok {
				for _, i := range positions[id] {
					results[i] = rec.Result(plan.Points[i])
				}
				continue
			}
			if reason, ok := resp.Failed[id]; ok {
				for _, i := range positions[id] {
					results[i] = core.PointResult{Point: plan.Points[i],
						Err: fmt.Errorf("coordinator: point failed: %s", reason)}
				}
				continue
			}
			still = append(still, id)
		}
		pending = still
		if len(pending) > 0 && !sleepCtx(ctx, poll) {
			return nil, ctx.Err()
		}
	}
	return results, nil
}

// Backoff produces jittered exponential retry delays: 100ms doubling to
// a 5s cap, each multiplied by a uniform factor in [0.5, 1.5) so a
// fleet of workers losing the coordinator together does not reconnect
// in lockstep. The jitter stream is seeded from the label (worker
// name), which keeps the service layer off ambient entropy (the
// rngpurity contract) while de-phasing distinct workers.
type Backoff struct {
	attempt   int
	base, cap time.Duration
	stream    *rng.Stream
}

// NewBackoff returns a backoff sequence seeded from label.
func NewBackoff(label string) *Backoff {
	h := fnv.New64a()
	_, _ = io.WriteString(h, label)
	return &Backoff{base: 100 * time.Millisecond, cap: 5 * time.Second, stream: rng.New(h.Sum64())}
}

// Next returns the next delay and advances the sequence.
func (b *Backoff) Next() time.Duration {
	d := b.base << b.attempt
	if d > b.cap || d <= 0 {
		d = b.cap
	} else {
		b.attempt++
	}
	jitter := 0.5 + b.stream.Float64()
	return time.Duration(float64(d) * jitter)
}

// Reset rewinds to the initial delay after a success.
func (b *Backoff) Reset() { b.attempt = 0 }

// sleepCtx sleeps for d unless ctx ends first, reporting whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
