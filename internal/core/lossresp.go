package core

import (
	"errors"
	"math"
	"time"

	"repro/internal/dsl"
	"repro/internal/enum"
	"repro/internal/trace"
)

// Loss-response synthesis: the paper scopes Abagnale to the cwnd-on-ACK
// handler but argues the technique "generalizes to synthesizing expressions
// to update other known state variables for other events" (§3). This file
// exercises that claim for the loss event: given the observable window just
// before and just after each inferred loss, synthesize the expression the
// CCA applies on loss (e.g. Reno's 0.5*cwnd, Westwood's
// ack-rate*min-rtt).

// LossEvent is one observed loss reaction. Env captures the congestion
// signals at the moment of loss, with Env.Cwnd the pre-loss window; After
// is the post-loss window the CCA settled at.
type LossEvent struct {
	Env   dsl.Env
	After float64
}

// ExtractLossEvents mines a trace for loss reactions: for each inferred
// loss, the environment of the last pre-loss sample and the smallest
// in-flight estimate within the following three smoothed RTTs (the window
// the sender deflated to once recovery drained the pipe).
func ExtractLossEvents(tr *trace.Trace) []LossEvent {
	var events []LossEvent
	for _, lt := range tr.Losses {
		var before *trace.Sample
		for i := range tr.Samples {
			if tr.Samples[i].Time >= lt {
				break
			}
			before = &tr.Samples[i]
		}
		if before == nil || before.Cwnd <= 0 {
			continue
		}
		horizon := lt + 3*maxDur(before.RTT, 10*time.Millisecond)
		after := math.Inf(1)
		for i := range tr.Samples {
			s := &tr.Samples[i]
			if s.Time <= lt {
				continue
			}
			if s.Time > horizon {
				break
			}
			if s.Cwnd > 0 && s.Cwnd < after {
				after = s.Cwnd
			}
		}
		if math.IsInf(after, 1) {
			continue
		}
		rtt := before.RTT
		if rtt == 0 {
			rtt = before.MinRTT
		}
		events = append(events, LossEvent{
			Env: dsl.Env{
				Cwnd:          before.Cwnd,
				MSS:           tr.MSS,
				Acked:         before.Acked,
				TimeSinceLoss: before.TimeSinceLoss.Seconds(),
				RTT:           rtt.Seconds(),
				MinRTT:        before.MinRTT.Seconds(),
				MaxRTT:        before.MaxRTT.Seconds(),
				AckRate:       before.AckRate,
				RTTGradient:   before.RTTGradient,
				WMax:          before.WMax,
			},
			After: after,
		})
	}
	return events
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// LossResponseResult is a completed loss-handler synthesis.
type LossResponseResult struct {
	// Handler computes the post-loss window from the at-loss environment.
	Handler *dsl.Node
	// Error is the mean relative error of the handler over the events.
	Error float64
	// HandlersScored counts evaluated candidates.
	HandlersScored int
}

// lossScore is the optimization objective: mean relative deviation between
// the handler's predicted post-loss window and the observed one.
func lossScore(h *dsl.Node, events []LossEvent) float64 {
	var total float64
	for i := range events {
		env := events[i].Env
		v, err := h.Eval(&env)
		if err != nil || v <= 0 {
			return math.Inf(1)
		}
		total += math.Abs(v-events[i].After) / events[i].After
	}
	return total / float64(len(events))
}

// SynthesizeLossResponse searches the sub-DSL for the loss-reaction
// expression that best predicts the observed post-loss windows. The search
// space at loss-handler depths is small, so a budgeted scan of the whole
// enumeration replaces the bucket loop.
func SynthesizeLossResponse(events []LossEvent, opts Options) (*LossResponseResult, error) {
	opts = opts.withDefaults()
	if opts.DSL == nil {
		return nil, errors.New("core: Options.DSL is required")
	}
	if len(events) == 0 {
		return nil, errors.New("core: no loss events")
	}
	d := *opts.DSL
	if d.MaxDepth > 3 {
		d.MaxDepth = 3 // loss reactions are shallow (Table 2's betas)
	}
	e := enum.New(&d)
	best := &LossResponseResult{Error: math.Inf(1)}
	scored := 0
	for sk := range e.All() {
		holes := sk.Holes()
		for _, vals := range completions(sk, d.Constants, holes, opts.MaxCompletions, opts.Seed) {
			h, err := bindHandler(sk, holes, vals)
			if err != nil {
				continue
			}
			scored++
			if s := lossScore(h, events); s < best.Error {
				best.Handler = h
				best.Error = s
			}
		}
		if scored >= opts.MaxHandlers {
			break
		}
	}
	best.HandlersScored = scored
	if best.Handler == nil {
		return nil, errors.New("core: no viable loss handler found")
	}
	return best, nil
}
