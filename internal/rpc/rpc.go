// Package rpc implements the paper's §4.3 communication primitive: remote
// invocation of named functions with typed parameters and an optional
// return value. Binding is static (pinned provider, pre-allocated
// resources) or dynamic (load-balanced); on provider failure the middleware
// "will detect the situation and redirect requests to the redundant
// service", letting the mission continue "perhaps in a degraded mode". At
// startup, services "check that all the functions they need ... are
// provided" — the DependencyCheck API.
//
// The engine is built for concurrent callers: the pending-call table is
// sharded by call id so unrelated calls never contend on one lock, and a
// call's remaining deadline travels on the wire (protocol.Frame.Budget) so
// providers can shed requests whose budget is already spent instead of
// wasting work on replies nobody can use. Two mechanisms bound latency
// under provider trouble:
//
//   - hedged failover (qos.CallQoS.HedgeAfter): after a configurable
//     fraction of the deadline with no reply, the call is speculatively
//     dispatched to the next untried provider and the first answer wins;
//   - server-side admission control (SetInflightLimit): a provider at its
//     concurrency limit answers MTBusy immediately, so the caller fails
//     over to a redundant provider instead of queueing blind.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/encoding"
	"uavmw/internal/fabric"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// Wire-path error codes: admission sheds, malformed replies and protocol
// violations land in the registry's "rpc.errors" family by category.
var (
	codeBusyShed        = uerr.Register("rpc.busy_shed", uerr.CatAdmission)
	codeUnknownFunction = uerr.Register("rpc.unknown_function", uerr.CatProtocol)
	codeReplyDecode     = uerr.Register("rpc.reply_decode", uerr.CatDecode)
	codeArgsDecode      = uerr.Register("rpc.args_decode", uerr.CatDecode)
)

// Errors.
var (
	// ErrNoProvider reports a call to a function nobody offers — the
	// condition that must trigger "the programmed emergency procedure".
	ErrNoProvider = errors.New("no provider for function")
	// ErrAllProvidersFailed reports failover exhaustion.
	ErrAllProvidersFailed = errors.New("all providers failed")
	// ErrDuplicateName reports a second registration of a function name
	// in one node.
	ErrDuplicateName = errors.New("function already registered")
	// ErrBadSignature reports caller/provider type disagreement.
	ErrBadSignature = errors.New("function signature mismatch")
	// ErrDeadline reports a call that exceeded its QoS deadline.
	ErrDeadline = errors.New("call deadline exceeded")
	// ErrBusy reports a provider that shed the request (admission
	// control); the engine treats it as an infrastructure failure and
	// fails over.
	ErrBusy = errors.New("provider busy")
	// ErrDependency reports unmet startup dependencies (E12).
	ErrDependency = errors.New("unmet function dependencies")
)

// AppError is a remote application-level failure: the function executed and
// returned an error. App errors do not trigger failover — the call
// succeeded at the middleware level.
type AppError struct {
	Name    string // function name
	Message string
}

// Error implements error.
func (e *AppError) Error() string {
	return fmt.Sprintf("rpc: %s: remote error: %s", e.Name, e.Message)
}

// Handler executes one invocation. args is canonical for the registered
// argument type (nil when the function takes no arguments). A returned
// error travels to the caller as an AppError.
type Handler func(args any) (any, error)

// DefaultCallDeadline bounds a call (including failover) when the QoS does
// not set one.
const DefaultCallDeadline = 2 * time.Second

// numPendingShards partitions the pending-call table so concurrent callers
// on unrelated calls never contend on one mutex. Must be a power of two.
const numPendingShards = 16

// pendingShard holds the pending calls whose ids hash onto it.
type pendingShard struct {
	mu    sync.Mutex
	calls map[uint64]*pendingCall
}

// Engine is the per-container remote-invocation runtime.
type Engine struct {
	f   fabric.Fabric
	clk clock.Clock

	regMu     sync.Mutex
	functions map[string]*registration

	pinMu sync.Mutex
	pins  map[string]transport.NodeID // static-binding pins per function

	pending [numPendingShards]pendingShard

	// inflightLimit caps concurrently executing remote-call handlers
	// (0 = unlimited); excess requests are answered MTBusy.
	inflightLimit atomic.Int64
	inflight      atomic.Int64

	// Registry handles, resolved once at construction. busyRejects is the
	// pre-resolved "rpc.errors" admission series (a shed is a per-request
	// event with no error value to hand anyone); hedges is an ordinary
	// counter family.
	reg         *metrics.Registry
	busyRejects *metrics.Counter
	hedges      *metrics.Counter
}

type registration struct {
	name    string
	service string
	argType *presentation.Type // nil = no args
	retType *presentation.Type // nil = no return value
	handler Handler
	q       qos.CallQoS
	calls   *metrics.Counter // "rpc.calls" series labeled by function
}

// pendingCall carries one in-flight remote attempt's reply slot. The
// completer stores the result and signals the trigger — under a Virtual
// clock the Signal releases the waiting attempt's parked count inside the
// clock lock, so virtual time cannot advance past a just-delivered reply
// (a raw channel send would leave the waiter invisible to the clock while
// it is runnable, letting time jump to the call deadline underneath it).
type pendingCall struct {
	trig clock.Trigger
	mu   sync.Mutex
	res  *callResult
}

// complete delivers res; only the first result wins (a busy shed racing a
// late success, say).
func (pc *pendingCall) complete(res callResult) {
	pc.mu.Lock()
	if pc.res == nil {
		pc.res = &res
	}
	pc.mu.Unlock()
	pc.trig.Signal()
}

func (pc *pendingCall) take() *callResult {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.res
}

type callResult struct {
	payload  []byte
	appErr   string
	infraErr bool
	busy     bool
	sendErr  error // reliable-send failure before any reply
	from     transport.NodeID
}

// New builds the engine for a container.
func New(f fabric.Fabric) *Engine {
	clk := clock.Clock(clock.Real{})
	if c, ok := f.(fabric.Clocked); ok {
		clk = clock.Or(c.Clock())
	}
	reg := fabric.MetricsOf(f)
	e := &Engine{
		f:           f,
		clk:         clk,
		functions:   make(map[string]*registration),
		pins:        make(map[string]transport.NodeID),
		reg:         reg,
		busyRejects: uerr.Handle(reg, codeBusyShed),
		hedges:      reg.Counter("rpc", "hedges"),
	}
	for i := range e.pending {
		e.pending[i].calls = make(map[uint64]*pendingCall)
	}
	return e
}

// SetInflightLimit caps how many remote-call handlers may execute
// concurrently on this provider; requests beyond the cap are answered
// MTBusy so callers fail over instead of queueing blind. Zero (the
// default) removes the cap.
func (e *Engine) SetInflightLimit(n int) {
	if n < 0 {
		n = 0
	}
	e.inflightLimit.Store(int64(n))
}

// BusyRejects reports how many incoming calls this provider has shed via
// MTBusy (admission control + budget shedding).
func (e *Engine) BusyRejects() uint64 { return e.busyRejects.Value() }

// Inflight reports how many remote-call handlers are executing right now
// (diagnostics / load probes).
func (e *Engine) Inflight() int { return int(e.inflight.Load()) }

// Hedges reports how many speculative hedged dispatches this caller has
// issued.
func (e *Engine) Hedges() uint64 { return e.hedges.Value() }

// Stats is a snapshot of the engine — a view over the registry's "rpc"
// families, the same series Node.MetricsSnapshot exports.
type Stats struct {
	// BusyRejects counts requests this provider shed via MTBusy.
	BusyRejects uint64
	// Hedges counts speculative hedged dispatches issued by this caller.
	Hedges uint64
	// Inflight is the number of handlers executing at snapshot time.
	Inflight int
	// DecodeDrops counts malformed replies and argument payloads dropped.
	DecodeDrops uint64
	// ProtocolViolations counts wire-contract breaches (unknown function
	// names offered as providers, admission sheds excluded).
	ProtocolViolations uint64
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	cat := func(c uerr.Category) uint64 {
		return e.reg.SumCounters("rpc", "errors", metrics.L("category", c.String()))
	}
	return Stats{
		BusyRejects:        e.busyRejects.Value(),
		Hedges:             e.hedges.Value(),
		Inflight:           int(e.inflight.Load()),
		DecodeDrops:        cat(uerr.CatDecode),
		ProtocolViolations: cat(uerr.CatProtocol),
	}
}

// Register exposes a function. argType/retType may be nil for void.
func (e *Engine) Register(name, service string, argType, retType *presentation.Type, q qos.CallQoS, h Handler) error {
	if h == nil {
		return fmt.Errorf("rpc: nil handler for %q: %w", name, ErrBadSignature)
	}
	if argType != nil {
		if err := argType.Validate(); err != nil {
			return err
		}
	}
	if retType != nil {
		if err := retType.Validate(); err != nil {
			return err
		}
	}
	if err := q.Validate(); err != nil {
		return err
	}
	e.regMu.Lock()
	if _, dup := e.functions[name]; dup {
		e.regMu.Unlock()
		return fmt.Errorf("rpc: %q: %w", name, ErrDuplicateName)
	}
	e.functions[name] = &registration{
		name:    name,
		service: service,
		argType: argType,
		retType: retType,
		handler: h,
		q:       q.Normalize(),
		calls:   e.reg.Counter("rpc", "calls", metrics.L("function", name)),
	}
	e.regMu.Unlock()
	e.f.OfferChanged()
	return nil
}

// Unregister withdraws a function. It is idempotent and also clears any
// static-binding pin recorded under the same name, so a later re-resolve
// starts fresh.
func (e *Engine) Unregister(name string) {
	e.regMu.Lock()
	_, had := e.functions[name]
	delete(e.functions, name)
	e.regMu.Unlock()
	e.pinMu.Lock()
	delete(e.pins, name)
	e.pinMu.Unlock()
	if had {
		e.f.OfferChanged()
	}
}

func sigOf(t *presentation.Type) string {
	if t == nil {
		return ""
	}
	return t.String()
}

// pendingFor returns the shard owning callID.
func (e *Engine) pendingFor(callID uint64) *pendingShard {
	return &e.pending[callID&(numPendingShards-1)]
}

// attemptOutcome is one provider's answer in the failover/hedging race.
type attemptOutcome struct {
	provider transport.NodeID
	value    any
	appErr   error
	err      error
}

// Call invokes name with args under the caller's QoS. It coerces args to
// the provider's argument type, resolves a provider per the binding policy,
// and fails over across redundant providers on infrastructure errors
// (including MTBusy sheds). With q.HedgeAfter > 0 the failover is hedged:
// after that fraction of the deadline with no reply, the call is
// speculatively dispatched to the next untried provider and the first
// successful answer wins; losers are cancelled.
func (e *Engine) Call(ctx context.Context, name string, args any, argType, retType *presentation.Type, q qos.CallQoS) (any, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q = q.Normalize()
	deadline := q.Deadline
	if deadline <= 0 {
		deadline = DefaultCallDeadline
	}
	// The call deadline rides the injected clock (not context.WithTimeout,
	// which only knows wall time): a timer cancels the context when the
	// clock says the budget is spent, so virtual-time runs see the same
	// deadline behaviour as real ones.
	var cancel context.CancelFunc
	ctx, cancel = context.WithCancel(ctx)
	defer cancel()
	dlAt := e.clk.Now().Add(deadline)
	dlTimer := e.clk.AfterFunc(deadline, cancel)
	defer dlTimer.Stop()

	// Encode arguments once.
	var payload []byte
	if argType != nil {
		cv, err := presentation.Coerce(argType, args)
		if err != nil {
			return nil, err
		}
		payload, err = e.f.Encoding().Marshal(argType, cv)
		if err != nil {
			return nil, err
		}
	} else if args != nil {
		return nil, fmt.Errorf("rpc: %q takes no arguments: %w", name, ErrBadSignature)
	}

	maxAttempts := q.Retries + 1
	if q.Retries == 0 {
		maxAttempts = 1 + e.f.Directory().ProviderCount(naming.KindFunction, name)
		if e.hasLocal(name) {
			maxAttempts++
		}
	}

	tried := make(map[transport.NodeID]bool)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	inflight, launched := 0, 0
	var (
		lastErr error
		appErr  error // first application error; held until the race settles
	)

	// Attempt outcomes arrive through a trigger-signalled queue rather than
	// a raw channel: under a Virtual clock the Signal wakes this goroutine
	// with its parked count released inside the clock lock, so time cannot
	// advance between an outcome landing and the race loop acting on it.
	var (
		outMu    sync.Mutex
		outcomes []attemptOutcome
	)
	trig := clock.NewTrigger(e.clk)
	report := func(out attemptOutcome) {
		outMu.Lock()
		outcomes = append(outcomes, out)
		outMu.Unlock()
		trig.Signal()
	}
	drain := func() []attemptOutcome {
		outMu.Lock()
		batch := outcomes
		outcomes = nil
		outMu.Unlock()
		return batch
	}

	// launch dispatches one attempt against the next untried provider;
	// it reports the selection error when none remains. Attempts are
	// registered with the clock: their dispatch work pins virtual time.
	launch := func() error {
		provider, local, err := e.selectProvider(name, argType, retType, q, tried)
		if err != nil {
			return err
		}
		tried[provider] = true
		actx, acancel := context.WithCancel(ctx)
		cancels = append(cancels, acancel)
		inflight++
		launched++
		clock.Go(e.clk, func() {
			var out attemptOutcome
			out.provider = provider
			if local {
				out.value, out.appErr, out.err = e.callLocal(actx, name, payload, argType, retType, q)
			} else {
				out.value, out.appErr, out.err = e.callRemote(actx, provider, name, payload, retType, q, dlAt)
			}
			report(out)
		})
		return nil
	}

	// Hedging: after HedgeAfter*deadline with no reply the call dispatches
	// the next provider speculatively; each fresh dispatch re-arms the
	// window so a string of slow providers keeps cascading until providers
	// or the deadline run out.
	var (
		hedgeDelay time.Duration
		hedgeAt    time.Time
		hedging    bool
	)
	if q.HedgeAfter > 0 {
		hedgeDelay = time.Duration(q.HedgeAfter * float64(deadline))
		hedging = hedgeDelay > 0
	}
	rearmHedge := func() {
		if hedging {
			hedgeAt = e.clk.Now().Add(hedgeDelay)
		}
	}

	// settle consumes one attempt outcome. It returns (value, err, true)
	// when the call is decided; (_, _, false) while the race continues.
	settle := func(out attemptOutcome) (any, error, bool) {
		inflight--
		if out.err == nil && out.appErr == nil {
			// First successful answer wins; the static pin follows the
			// winner, not the speculative dispatch.
			if q.Binding == qos.BindStatic && out.provider != e.f.Self() {
				e.setPin(name, out.provider)
			}
			return out.value, nil, true
		}
		if out.err == nil {
			// Application error: the function executed, so no new
			// attempts are warranted (no failover on app errors) — but
			// a hedged sibling already in flight may still win with a
			// success, so hold the error until the race settles.
			if appErr == nil {
				appErr = out.appErr
			}
			if inflight == 0 {
				return nil, appErr, true
			}
			return nil, nil, false
		}
		// Infrastructure failure: fail over to the next provider —
		// unless the function already executed somewhere or the
		// deadline has already passed (no point launching dead-on-
		// arrival attempts from the drain path).
		lastErr = out.err
		e.unpin(name, out.provider)
		if appErr == nil && ctx.Err() == nil && launched < maxAttempts && launch() == nil {
			rearmHedge()
			return nil, nil, false
		}
		if inflight == 0 {
			if appErr != nil {
				return nil, appErr, true
			}
			if ctx.Err() != nil {
				// The race ended because the deadline expired (the
				// last attempt's outcome may arrive via results rather
				// than the ctx.Done branch): report a deadline miss,
				// not provider exhaustion.
				e.unpinTried(name, tried)
				return nil, fmt.Errorf("rpc: %s: %w (last: %v)", name, ErrDeadline, lastErr), true
			}
			return nil, fmt.Errorf("rpc: %s after %d attempts: %w (last: %v)",
				name, launched, ErrAllProvidersFailed, lastErr), true
		}
		return nil, nil, false
	}

	// The race loop parks on the trigger (managed: under a Virtual clock a
	// wake — outcome, hedge edge or deadline — is accounted before this
	// goroutine runs). Under a Virtual clock the caller is a registered
	// goroutine, so the dispatch work between parks pins virtual time.
	if err := launch(); err != nil {
		return nil, err
	}
	rearmHedge()
	for {
		for _, out := range drain() {
			if v, err, done := settle(out); done {
				return v, err
			}
		}
		if hedging && appErr == nil && !e.clk.Now().Before(hedgeAt) {
			if launched < maxAttempts && launch() == nil {
				e.hedges.Inc()
				rearmHedge()
			} else {
				hedging = false // no untried provider left; stop hedging
			}
			continue
		}
		wait := time.Duration(-1)
		if hedging && appErr == nil {
			wait = hedgeAt.Sub(e.clk.Now())
		}
		if !trig.Wait(wait, ctx.Done()) {
			// Deadline (or caller cancellation). An outcome may have
			// landed in the same scheduling window the deadline fired
			// in; a winner that made it in time must not be reported
			// as a deadline miss.
			for _, out := range drain() {
				if v, err, done := settle(out); done {
					return v, err
				}
			}
			if appErr != nil {
				return nil, appErr
			}
			// A provider that burned the whole deadline without
			// answering must not keep its static pin: the attempt
			// goroutines' timeout outcomes may never be observed (they
			// race this branch), so clear the pins here before the
			// next call re-resolves.
			e.unpinTried(name, tried)
			if lastErr != nil {
				return nil, fmt.Errorf("rpc: %s: %w (last: %v)", name, ErrDeadline, lastErr)
			}
			return nil, fmt.Errorf("rpc: %s: %w", name, ErrDeadline)
		}
	}
}

func (e *Engine) hasLocal(name string) bool {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	_, ok := e.functions[name]
	return ok
}

// selectProvider resolves the next untried provider, preferring the local
// registration (bypass) and honoring static pins.
func (e *Engine) selectProvider(name string, argType, retType *presentation.Type, q qos.CallQoS, tried map[transport.NodeID]bool) (transport.NodeID, bool, error) {
	self := e.f.Self()
	if e.hasLocal(name) && !tried[self] {
		return self, true, nil
	}
	e.pinMu.Lock()
	pinned := e.pins[name]
	e.pinMu.Unlock()

	dir := e.f.Directory()
	// First choice goes through Select, which applies the binding policy
	// (pin liveness for static, load-balancing for dynamic).
	rec, err := dir.Select(naming.KindFunction, name, q.Binding, pinned)
	if err == nil && tried[rec.Node] {
		// Failover attempt: walk the full provider list for an untried
		// node instead.
		err = fmt.Errorf("rpc: %s: %w", name, ErrNoProvider)
		for _, alt := range dir.Lookup(naming.KindFunction, name) {
			if !tried[alt.Node] {
				rec, err = alt, nil
				break
			}
		}
	}
	if err != nil {
		return "", false, fmt.Errorf("rpc: %s: %w", name, ErrNoProvider)
	}
	if err := checkSignature(rec, argType, retType); err != nil {
		return "", false, err
	}
	// Static pins are NOT written here: a speculative hedge dispatch must
	// not move the pin. The Call loop pins the provider that actually
	// wins the race.
	return rec.Node, false, nil
}

func checkSignature(rec naming.Record, argType, retType *presentation.Type) error {
	if rec.ArgSig != sigOf(argType) {
		return fmt.Errorf("rpc: %s: provider args %q, caller %q: %w",
			rec.Name, rec.ArgSig, sigOf(argType), ErrBadSignature)
	}
	if rec.TypeSig != sigOf(retType) {
		return fmt.Errorf("rpc: %s: provider returns %q, caller wants %q: %w",
			rec.Name, rec.TypeSig, sigOf(retType), ErrBadSignature)
	}
	return nil
}

// unpinTried clears the static pin if it points at any provider this call
// dispatched to and got no timely answer from (deadline-miss cleanup).
func (e *Engine) unpinTried(name string, tried map[transport.NodeID]bool) {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	if tried[e.pins[name]] {
		delete(e.pins, name)
	}
}

func (e *Engine) setPin(name string, node transport.NodeID) {
	e.pinMu.Lock()
	e.pins[name] = node
	e.pinMu.Unlock()
}

func (e *Engine) unpin(name string, node transport.NodeID) {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	if e.pins[name] == node {
		delete(e.pins, name)
	}
}

// callLocal executes a local registration through the scheduler (bypass
// path: no encode/decode of the return value, but arguments were already
// encoded once for uniformity — decode them back).
func (e *Engine) callLocal(ctx context.Context, name string, payload []byte, argType, retType *presentation.Type, q qos.CallQoS) (any, error, error) {
	e.regMu.Lock()
	reg := e.functions[name]
	e.regMu.Unlock()
	if reg == nil {
		return nil, nil, fmt.Errorf("rpc: %s: %w", name, ErrNoProvider)
	}
	if sigOf(reg.argType) != sigOf(argType) || sigOf(reg.retType) != sigOf(retType) {
		return nil, nil, fmt.Errorf("rpc: %s local: %w", name, ErrBadSignature)
	}
	var args any
	if reg.argType != nil {
		decoded, err := e.f.Encoding().Unmarshal(reg.argType, payload)
		if err != nil {
			return nil, nil, err
		}
		args = decoded
	}
	// The handler's result comes back through a trigger-signalled slot so
	// the wait is clock-managed (see pendingCall).
	type res struct {
		v   any
		err error
	}
	var (
		rmu sync.Mutex
		out *res
	)
	trig := clock.NewTrigger(e.clk)
	if err := e.f.Schedule(q.Priority, func() {
		v, err := reg.handler(args)
		rmu.Lock()
		out = &res{v: v, err: err}
		rmu.Unlock()
		trig.Signal()
	}); err != nil {
		return nil, nil, err
	}
	for {
		rmu.Lock()
		r := out
		rmu.Unlock()
		if r != nil {
			reg.calls.Inc()
			if r.err != nil {
				return nil, &AppError{Name: name, Message: r.err.Error()}, nil
			}
			if reg.retType == nil {
				return nil, nil, nil
			}
			cv, err := presentation.Coerce(reg.retType, r.v)
			if err != nil {
				return nil, &AppError{Name: name, Message: err.Error()}, nil
			}
			return cv, nil, nil
		}
		if !trig.Wait(-1, ctx.Done()) {
			return nil, nil, fmt.Errorf("rpc: %s local: %w", name, ErrDeadline)
		}
	}
}

// callRemote performs one remote attempt. The caller's remaining deadline
// is stamped onto the MTCall frame so the provider can shed the request if
// the budget is spent before a handler runs.
func (e *Engine) callRemote(ctx context.Context, provider transport.NodeID, name string, payload []byte, retType *presentation.Type, q qos.CallQoS, dlAt time.Time) (any, error, error) {
	callID := e.f.NextSeq()
	pc := &pendingCall{trig: clock.NewTrigger(e.clk)}
	sh := e.pendingFor(callID)
	sh.mu.Lock()
	sh.calls[callID] = pc
	sh.mu.Unlock()
	defer func() {
		sh.mu.Lock()
		delete(sh.calls, callID)
		sh.mu.Unlock()
	}()

	budget := dlAt.Sub(e.clk.Now())
	if budget <= 0 {
		return nil, nil, fmt.Errorf("rpc: %s to %q: %w", name, provider, ErrDeadline)
	}
	// The call's QoS priority selects both the remote handler's scheduler
	// class and the local egress lane the request drains from, so an
	// urgent call overtakes queued bulk on its way out too.
	frame := &protocol.Frame{
		Type:     protocol.MTCall,
		Encoding: e.f.Encoding().ID(),
		Priority: q.Priority,
		Channel:  name,
		Seq:      callID,
		Budget:   budget,
		Payload:  payload,
	}
	e.f.SendReliable(provider, frame, fabric.ReliableOpts{}, func(err error) {
		if err != nil {
			pc.complete(callResult{sendErr: err})
		}
	})

	for {
		if res := pc.take(); res != nil {
			if res.sendErr != nil {
				return nil, nil, fmt.Errorf("rpc: %s to %q: %w", name, provider, res.sendErr)
			}
			if res.busy {
				return nil, nil, fmt.Errorf("rpc: %s to %q: %w", name, provider, ErrBusy)
			}
			if res.infraErr {
				return nil, nil, uerr.Newf(e.reg, codeUnknownFunction,
					"%s: provider %q has no such function", name, provider)
			}
			if res.appErr != "" {
				return nil, &AppError{Name: name, Message: res.appErr}, nil
			}
			if retType == nil {
				return nil, nil, nil
			}
			v, err := e.f.Encoding().Unmarshal(retType, res.payload)
			if err != nil {
				return nil, nil, err
			}
			return v, nil, nil
		}
		if !pc.trig.Wait(-1, ctx.Done()) {
			return nil, nil, fmt.Errorf("rpc: %s to %q: %w", name, provider, ErrDeadline)
		}
	}
}

// HandleCall executes an incoming MTCall and replies. Admission control
// runs before any work: a provider at its concurrency limit, or one whose
// scheduler rejects the job, or a request whose wire-propagated deadline
// budget is already spent by the time the handler would run, all answer
// MTBusy so the caller fails over immediately.
func (e *Engine) HandleCall(from transport.NodeID, fr *protocol.Frame) {
	e.regMu.Lock()
	reg := e.functions[fr.Channel]
	e.regMu.Unlock()
	callID := fr.Seq
	// The scheduled handler below outlives fr (the fabric pools decoded
	// frames), so everything it needs is captured as scalars here.
	rawPr, ch := fr.Priority, fr.Channel
	if reg == nil {
		e.sendReply(from, protocol.MTError, 0, rawPr, ch, callID, nil)
		return
	}
	// Concurrency limit: strict reserve-then-check so the cap holds under
	// concurrent arrivals.
	limit := e.inflightLimit.Load()
	if e.inflight.Add(1) > limit && limit > 0 {
		e.inflight.Add(-1)
		e.replyBusy(from, callID, rawPr, ch)
		return
	}
	arrival := e.clk.Now()
	var args any
	if reg.argType != nil {
		decoded, err := e.f.Encoding().Unmarshal(reg.argType, fr.Payload)
		if err != nil {
			e.inflight.Add(-1)
			uerr.Wrapf(e.reg, codeArgsDecode, err, "%s from %q", reg.name, from)
			e.replyAppError(from, callID, rawPr, ch, fmt.Sprintf("bad arguments: %v", err))
			return
		}
		args = decoded
	}
	pr := fr.Priority
	if !pr.Valid() {
		pr = reg.q.Priority
	}
	handler := reg.handler
	budget := fr.Budget
	if err := e.f.Schedule(pr, func() {
		defer e.inflight.Add(-1)
		if budget > 0 && e.clk.Since(arrival) >= budget {
			// Provider-side queueing alone has consumed the caller's
			// whole budget, so the reply cannot arrive in time: shed
			// instead of wasting work. (Network transit before arrival
			// is not counted — the two nodes' clocks are not assumed
			// synchronized — so this catches queueing delay, the
			// dominant term on an overloaded provider, not every spent
			// budget.)
			e.replyBusy(from, callID, rawPr, ch)
			return
		}
		v, err := handler(args)
		reg.calls.Inc()
		if err != nil {
			e.replyAppError(from, callID, rawPr, ch, err.Error())
			return
		}
		var payload []byte
		if reg.retType != nil {
			cv, cerr := presentation.Coerce(reg.retType, v)
			if cerr != nil {
				e.replyAppError(from, callID, rawPr, ch, cerr.Error())
				return
			}
			payload, cerr = e.f.Encoding().Marshal(reg.retType, cv)
			if cerr != nil {
				e.replyAppError(from, callID, rawPr, ch, cerr.Error())
				return
			}
		}
		e.sendReply(from, protocol.MTReturn, e.f.Encoding().ID(), pr, ch, callID, payload)
	}); err != nil {
		// Scheduler saturated: shed so the caller fails over rather than
		// treating local overload as an application error.
		e.inflight.Add(-1)
		e.replyBusy(from, callID, rawPr, ch)
	}
}

// sendReply builds one reply frame (MTReturn / MTError / MTBusy) on pooled
// storage — the frame from the protocol frame pool, the call-id-prefixed
// payload from bufpool — and recycles both once SendReliable returns (the
// fabric encodes synchronously and retains neither).
func (e *Engine) sendReply(to transport.NodeID, mt protocol.MsgType, enc uint8, pr qos.Priority, ch string, callID uint64, body []byte) {
	buf := bufpool.Get(8 + len(body))
	buf = binary.BigEndian.AppendUint64(buf, callID)
	buf = append(buf, body...)
	reply := protocol.GetFrame()
	*reply = protocol.Frame{
		Type:     mt,
		Encoding: enc,
		Priority: pr,
		Channel:  ch,
		Payload:  buf,
	}
	e.f.SendReliable(to, reply, fabric.ReliableOpts{}, nil)
	protocol.PutFrame(reply)
	bufpool.Put(buf)
}

// replyBusy sheds one request with an explicit MTBusy (§4.3 admission
// control); the caller treats it as an infrastructure failure and fails
// over.
func (e *Engine) replyBusy(to transport.NodeID, callID uint64, pr qos.Priority, ch string) {
	e.busyRejects.Inc()
	e.sendReply(to, protocol.MTBusy, 0, pr, ch, callID, nil)
}

func (e *Engine) replyAppError(to transport.NodeID, callID uint64, pr qos.Priority, ch string, msg string) {
	buf := bufpool.Get(12 + len(msg))
	buf = binary.BigEndian.AppendUint64(buf, callID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(msg)))
	buf = append(buf, msg...)
	reply := protocol.GetFrame()
	*reply = protocol.Frame{
		Type:     protocol.MTError,
		Flags:    protocol.FlagAppError,
		Priority: pr,
		Channel:  ch,
		Payload:  buf,
	}
	e.f.SendReliable(to, reply, fabric.ReliableOpts{}, nil)
	protocol.PutFrame(reply)
	bufpool.Put(buf)
}

// Replies must not reuse the caller-allocated call id as their wire
// sequence number: frame seq spaces (ARQ pending state, receive-side
// dedup) are per sender, so a reply frame squatting a number from the
// caller's space can collide with an unrelated frame the provider sends
// later under its own numbering — and be silently dropped as a duplicate.
// The call id therefore travels as a u64 prefix of the reply payload and
// the reply's Seq is provider-allocated (SendReliable fills it).

// encodeReply prefixes a reply body with the call id it answers.
func encodeReply(callID uint64, body []byte) []byte {
	w := encoding.NewWriter(8 + len(body))
	w.Uint64(callID)
	w.Raw(body)
	return w.Bytes()
}

// decodeReply splits a reply payload into call id and body.
func decodeReply(payload []byte) (callID uint64, body []byte, ok bool) {
	r := encoding.NewReader(payload)
	callID = r.Uint64()
	if r.Err() != nil {
		return 0, nil, false
	}
	return callID, r.Raw(r.Remaining()), true
}

// HandleReturn completes a pending call with a success reply.
func (e *Engine) HandleReturn(from transport.NodeID, fr *protocol.Frame) {
	callID, body, ok := decodeReply(fr.Payload)
	if !ok {
		uerr.Newf(e.reg, codeReplyDecode, "return from %q", from)
		return
	}
	e.complete(callID, callResult{payload: append([]byte(nil), body...), from: from})
}

// HandleBusy completes a pending call with a provider shed; the call loop
// fails over to the next provider.
func (e *Engine) HandleBusy(from transport.NodeID, fr *protocol.Frame) {
	callID, _, ok := decodeReply(fr.Payload)
	if !ok {
		uerr.Newf(e.reg, codeReplyDecode, "busy from %q", from)
		return
	}
	e.complete(callID, callResult{busy: true, from: from})
}

// HandleError completes a pending call with a failure reply.
func (e *Engine) HandleError(from transport.NodeID, fr *protocol.Frame) {
	callID, body, ok := decodeReply(fr.Payload)
	if !ok {
		uerr.Newf(e.reg, codeReplyDecode, "error reply from %q", from)
		return
	}
	if fr.Flags&protocol.FlagAppError != 0 {
		r := encoding.NewReader(body)
		msg := r.String()
		if r.Err() != nil {
			msg = "remote error"
		}
		e.complete(callID, callResult{appErr: msg, from: from})
		return
	}
	e.complete(callID, callResult{infraErr: true, from: from})
}

func (e *Engine) complete(callID uint64, res callResult) {
	sh := e.pendingFor(callID)
	sh.mu.Lock()
	pc := sh.calls[callID]
	sh.mu.Unlock()
	if pc == nil {
		return // late reply after failover or deadline
	}
	pc.complete(res)
}

// DependencyCheck verifies every named function has at least one provider,
// locally or in the directory (§4.3 startup behaviour, experiment E12).
// The returned error lists every missing name.
func (e *Engine) DependencyCheck(names ...string) error {
	var missing []string
	for _, name := range names {
		if e.hasLocal(name) {
			continue
		}
		if e.f.Directory().ProviderCount(naming.KindFunction, name) > 0 {
			continue
		}
		missing = append(missing, name)
	}
	if len(missing) > 0 {
		return fmt.Errorf("rpc: missing %s: %w", strings.Join(missing, ", "), ErrDependency)
	}
	return nil
}

// Records lists this node's registered functions for announcements.
func (e *Engine) Records() []naming.Record {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	out := make([]naming.Record, 0, len(e.functions))
	for _, reg := range e.functions {
		out = append(out, naming.Record{
			Kind:    naming.KindFunction,
			Name:    reg.name,
			Service: reg.service,
			Node:    e.f.Self(),
			TypeSig: sigOf(reg.retType),
			ArgSig:  sigOf(reg.argType),
		})
	}
	return out
}

// Calls reports how many times a local function has executed.
func (e *Engine) Calls(name string) uint64 {
	e.regMu.Lock()
	reg := e.functions[name]
	e.regMu.Unlock()
	if reg != nil {
		return reg.calls.Value()
	}
	return 0
}
