package pws

import (
	"errors"
	"fmt"

	"repro/internal/rpc"
	"repro/internal/rt"
	"repro/internal/types"
)

// AsError surfaces a submit ack as an error: nil on success, an error
// wrapping rpc.ErrShed when the scheduler refused the job at admission
// (so callers can errors.Is the cluster-overload case and back off like
// any other shed).
func (a SubmitAck) AsError() error {
	if a.OK {
		return nil
	}
	if a.Shed {
		return fmt.Errorf("%s: %w", a.Err, rpc.ErrShed)
	}
	if a.Err != "" {
		return errors.New(a.Err)
	}
	return errors.New("pws: submit failed")
}

// Client is the user-facing interface to a PWS scheduler, embedded in
// submission tools and experiments. Calls run through a resilient
// rpc.Caller: the scheduler address is re-resolved on every attempt (it
// moves with its partition's GSD on migration) and retries are carved out
// of the deadline budget. Its Handle resolves the scheduler's replies.
type Client struct{ rpc.Client }

// NewClient builds a client; target resolves the scheduler's current
// address, opts the retry/breaker behaviour.
func NewClient(r rt.Runtime, opts rpc.Options, target func() (types.Addr, bool)) *Client {
	return &Client{rpc.NewClient(r, opts, target)}
}

// Submit queues a job; done (optional) receives the ack. The request token
// is reused across retries, so the scheduler sees a retried submit as the
// same request.
func (c *Client) Submit(job Job, done func(SubmitAck)) {
	rpc.Ask(&c.Client, MsgSubmit, func(token uint64) any { return SubmitReq{Token: token, Job: job} },
		func(ack SubmitAck, err error) {
			if done == nil {
				return
			}
			if err != nil {
				ack.Err = "pws: " + err.Error()
			}
			done(ack)
		})
}

// Stat fetches scheduler statistics; ok=false when the budget is exhausted.
func (c *Client) Stat(done func(StatAck, bool)) {
	rpc.Ask(&c.Client, MsgStat, func(token uint64) any { return StatReq{Token: token} },
		func(ack StatAck, err error) { done(ack, err == nil) })
}

// Drain marks a node unschedulable (undrain=false) or schedulable again
// (undrain=true); done (optional) receives the ack. Drain requests are
// idempotent on the scheduler, so retries are harmless.
func (c *Client) Drain(node types.NodeID, undrain bool, done func(DrainAdminAck)) {
	rpc.Ask(&c.Client, MsgDrain, func(token uint64) any {
		return DrainAdminReq{Token: token, Node: node, Undrain: undrain}
	}, func(ack DrainAdminAck, err error) {
		if done == nil {
			return
		}
		if err != nil {
			ack.Err = "pws: " + err.Error()
		}
		done(ack)
	})
}

// Delete cancels a job; done (optional) receives the ack.
func (c *Client) Delete(id types.JobID, done func(DeleteAck)) {
	rpc.Ask(&c.Client, MsgDelete, func(token uint64) any { return DeleteReq{Token: token, ID: id} },
		func(ack DeleteAck, err error) {
			if done == nil {
				return
			}
			if err != nil {
				ack.Err = "pws: " + err.Error()
			}
			done(ack)
		})
}

// JobStat fetches one job's state; ok=false when the budget is exhausted.
func (c *Client) JobStat(id types.JobID, done func(JobStatAck, bool)) {
	rpc.Ask(&c.Client, MsgJobStat, func(token uint64) any { return JobStatReq{Token: token, ID: id} },
		func(ack JobStatAck, err error) { done(ack, err == nil) })
}
