package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client is a thin typed wrapper over the sweepd HTTP API, used by the
// end-to-end tests and the benchmark harness.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP defaults to http.DefaultClient.
	HTTP *http.Client
	// Token, when non-empty, is sent as "Authorization: Bearer ..." —
	// required by servers configured with Config.Token.
	Token string
	// Principal, when non-empty, is sent as X-Sweep-Principal on
	// submissions; the server records it as the job's label (empty:
	// "anonymous").
	Principal string
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// newRequest builds a request with the client's auth and principal
// headers attached.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), body)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if c.Principal != "" {
		req.Header.Set("X-Sweep-Principal", c.Principal)
	}
	return req, nil
}

// do issues one request and decodes a JSON body into out (skipped when
// out is nil). Non-2xx responses become errors carrying the server's
// "error" field.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := c.newRequest(ctx, method, path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		se := &StatusError{Method: method, Path: path, Code: resp.StatusCode, Status: resp.Status}
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<14)).Decode(&e) == nil && e.Error != "" {
			se.Message = e.Error
		}
		return se
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// StatusError is a non-2xx response from the server. Carrying the
// numeric code lets callers tell, say, a refused submission (400) from
// a missing job (404).
type StatusError struct {
	// Method and Path identify the request that failed.
	Method, Path string
	// Code is the numeric HTTP status; Status is the full status line.
	Code   int
	Status string
	// Message is the server's "error" body field, when present.
	Message string
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("%s %s: %s (%s)", e.Method, e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("%s %s: %s", e.Method, e.Path, e.Status)
}

// Submit posts a JobSpec and returns the created job's status.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/jobs", spec, &st)
	return st, err
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st)
	return st, err
}

// Cancel cancels (or, if finished, forgets) a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, nil)
}

// Wait polls until the job reaches a terminal state. A failed or
// cancelled job is reported as an error.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Finished() {
			if st.State != StateDone {
				if st.Error != "" {
					return st, fmt.Errorf("service: job %s %s: %s", id, st.State, st.Error)
				}
				return st, fmt.Errorf("service: job %s %s", id, st.State)
			}
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Result downloads the finished job's emitter output in the named
// format ("" = csv) and writes it to w.
func (c *Client) Result(ctx context.Context, id, format string, w io.Writer) error {
	path := "/jobs/" + id + "/result"
	if format != "" {
		path += "?format=" + format
	}
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<14))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// Progress streams the job's NDJSON progress, invoking fn per event
// until the stream ends (job finished) or ctx/fn stops it. fn
// returning false ends the stream early.
func (c *Client) Progress(ctx context.Context, id string, fn func(ProgressEvent) bool) error {
	req, err := c.newRequest(ctx, http.MethodGet, "/jobs/"+id+"/progress", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /jobs/%s/progress: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev ProgressEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("bad progress line %q: %w", line, err)
		}
		if !fn(ev) {
			return nil
		}
	}
	return sc.Err()
}
