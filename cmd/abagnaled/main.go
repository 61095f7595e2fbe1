// Command abagnaled is the synthesis daemon: a long-running service that
// accepts trace-synthesis jobs over a versioned HTTP API (/api/v1),
// schedules them through a bounded multi-tenant queue, and keeps the
// enumerated sketch corpora warm across jobs — and, via disk snapshots,
// across restarts. The live observability surface (/metrics, /runs,
// /events, /flight) shares the same port, so a submitted job can be
// watched end to end with curl.
//
// Serve (the default mode):
//
//	abagnaled -listen :8080 -snapshots ~/.abagnale/corpora -prewarm reno
//	abagnaled -queue 128 -workers 4 -v
//
// Client subcommands drive a running daemon:
//
//	abagnaled submit -dsl reno trace.pcap        # upload, print job ID
//	abagnaled submit -path -wait trace.pcap      # by path, poll to result
//	abagnaled status job-000001
//	abagnaled result -wait job-000001
//	abagnaled jobs
//
// See DESIGN.md §6 for the API schema and the snapshot format.
package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/service"
)

func main() {
	// Client subcommands peel off before daemon flag parsing.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "submit", "status", "result", "jobs":
			if err := runClient(os.Args[1], os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "abagnaled:", err)
				os.Exit(1)
			}
			return
		}
	}

	var (
		listen    = flag.String("listen", service.DefaultListen, "HTTP bind address (:0 picks a free port)")
		snapshots = flag.String("snapshots", "", "corpus snapshot directory (empty disables warm restarts)")
		queue     = flag.Int("queue", 64, "max queued jobs across all tenants (admission bound)")
		workers   = flag.Int("workers", 2, "concurrent jobs (CPU is gated to GOMAXPROCS overall)")
		prewarm   = flag.String("prewarm", "", "comma-separated sub-DSLs to materialize and persist at startup")
		verbose   = flag.Bool("v", false, "print live progress to stderr")
	)
	c := cli.RegisterVersion("abagnaled", flag.CommandLine)
	flag.Parse()
	_, done := c.Setup() // handles -version
	if flag.NArg() > 0 {
		c.UsageExit(fmt.Sprintf("unknown subcommand %q (want submit, status, result, or jobs)", flag.Arg(0)))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := service.RunDaemon(ctx, service.Config{
		QueueDepth:  *queue,
		Workers:     *workers,
		SnapshotDir: *snapshots,
	}, service.DaemonOptions{
		Listen:  *listen,
		Prewarm: service.ParsePrewarm(*prewarm),
		Verbose: *verbose,
	})
	c.Finish(err, done)
}

// runClient executes one client subcommand against a running daemon.
func runClient(cmd string, args []string) error {
	fs := flag.NewFlagSet("abagnaled "+cmd, flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "daemon base URL")
	var (
		dslName = fs.String("dsl", "", "sub-DSL to search (reno|cubic|delay|vegas)")
		hintCCA = fs.String("hint-cca", "", "pick the sub-DSL from this CCA's family")
		metric  = fs.String("metric", "", "distance metric (daemon default: dtw)")
		budget  = fs.Int("budget", 0, "max concrete handlers to score (daemon default: 120000)")
		minSeg  = fs.Int("min-segment", 0, "minimum ACK samples per segment (daemon default: 16)")
		seed    = fs.Int64("seed", 0, "random seed (daemon default: 1)")
		tenant  = fs.String("tenant", "", "fairness key (daemon default: anonymous)")
		name    = fs.String("name", "", "job label on the live board")
		byPath  = fs.Bool("path", false, "submit the pcap path (daemon-readable) instead of uploading")
		wait    = fs.Bool("wait", false, "poll until the job finishes and print its result")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cl := &client{base: *addr}
	switch cmd {
	case "submit":
		if fs.NArg() != 1 {
			return fmt.Errorf("submit wants exactly one pcap file, got %d", fs.NArg())
		}
		spec := service.JobSpec{
			DSL: *dslName, HintCCA: *hintCCA, Metric: *metric,
			Budget: *budget, MinSegment: *minSeg, Seed: *seed,
			Tenant: *tenant, Name: *name,
		}
		file := fs.Arg(0)
		if *byPath {
			abs, err := filepath.Abs(file)
			if err != nil {
				return err
			}
			spec.TracePath = abs
		} else {
			b, err := os.ReadFile(file)
			if err != nil {
				return err
			}
			spec.TraceB64 = base64.StdEncoding.EncodeToString(b)
			if spec.Name == "" {
				spec.Name = filepath.Base(file)
			}
		}
		st, err := cl.submit(spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "submitted %s (tenant %s, state %s)\n", st.ID, st.Tenant, st.State)
		if !*wait {
			fmt.Println(st.ID)
			return nil
		}
		return cl.waitResult(st.ID)
	case "status":
		if fs.NArg() != 1 {
			return fmt.Errorf("status wants exactly one job ID")
		}
		var st service.JobStatus
		if err := cl.getJSON("/jobs/"+fs.Arg(0), &st, http.StatusOK); err != nil {
			return err
		}
		return printJSON(st)
	case "result":
		if fs.NArg() != 1 {
			return fmt.Errorf("result wants exactly one job ID")
		}
		if *wait {
			return cl.waitResult(fs.Arg(0))
		}
		var res service.JobResult
		if err := cl.getJSON("/jobs/"+fs.Arg(0)+"/result", &res, http.StatusOK); err != nil {
			return err
		}
		return printJSON(res)
	case "jobs":
		var list []service.JobStatus
		if err := cl.getJSON("/jobs", &list, http.StatusOK); err != nil {
			return err
		}
		return printJSON(list)
	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}

// client is a minimal /api/v1 consumer.
type client struct {
	base string
	http http.Client
}

// submit POSTs a spec, retrying on 429 backpressure per Retry-After.
func (c *client) submit(spec service.JobSpec) (service.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.JobStatus{}, err
	}
	for {
		resp, err := c.http.Post(c.base+service.APIPrefix+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return service.JobStatus{}, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			delay := time.Second
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if d, err := time.ParseDuration(ra + "s"); err == nil {
					delay = d
				}
			}
			fmt.Fprintf(os.Stderr, "queue full, retrying in %v\n", delay)
			time.Sleep(delay)
			continue
		}
		var st service.JobStatus
		err = decodeAs(resp, &st, http.StatusAccepted)
		return st, err
	}
}

// waitResult polls a job until done, printing its result JSON.
func (c *client) waitResult(id string) error {
	for {
		resp, err := c.http.Get(c.base + service.APIPrefix + "/jobs/" + id + "/result")
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusAccepted {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(200 * time.Millisecond)
			continue
		}
		var res service.JobResult
		if err := decodeAs(resp, &res, http.StatusOK); err != nil {
			return err
		}
		return printJSON(res)
	}
}

// getJSON GETs an API path into v, expecting the given status.
func (c *client) getJSON(path string, v any, want int) error {
	resp, err := c.http.Get(c.base + service.APIPrefix + path)
	if err != nil {
		return err
	}
	return decodeAs(resp, v, want)
}

// decodeAs closes resp and decodes its body into v, surfacing API error
// bodies as errors.
func decodeAs(resp *http.Response, v any, want int) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, apiErr.Error)
		}
		return fmt.Errorf("unexpected status %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// printJSON renders v indented on stdout.
func printJSON(v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}
