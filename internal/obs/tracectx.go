package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// TraceContext identifies one causal chain through the serving stack: a
// trace ID minted at admission and a span ID naming the current phase. It
// travels through context.Context (WithTrace / TraceFrom), so every layer
// that already receives a context — the scheduler, the retry loop, the
// batch runner, the LOCAL runtime, the resamplers — can tag its trace
// events without new plumbing. The zero TraceContext means "untraced" and
// every consumer treats it as absent.
//
// IDs are opaque hex strings. They are generated from a process-local
// sequence mixed with a per-process random base, so they are unique within
// a daemon's lifetime and collide across daemons only with hash
// probability; they carry no information and never influence results — the
// golden-table determinism contract is indifferent to them.
type TraceContext struct {
	// Trace is the 16-hex-digit trace ID shared by every span of one job.
	Trace string
	// Span is the 16-hex-digit ID of the current span; child spans record
	// it as their parent.
	Span string
	// Job is the service job ID the trace belongs to ("" outside the job
	// service).
	Job string
}

// Valid reports whether the context carries a trace.
func (tc TraceContext) Valid() bool { return tc.Trace != "" }

// Child returns a copy of tc with a fresh span ID, for entering a subphase.
func (tc TraceContext) Child() TraceContext {
	if !tc.Valid() {
		return tc
	}
	tc.Span = NewSpanID()
	return tc
}

// traceKey is the context key under which a TraceContext is stored.
type traceKey struct{}

// WithTrace returns a context carrying tc. An invalid tc returns ctx
// unchanged.
func WithTrace(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tc)
}

// TraceFrom extracts the TraceContext carried by ctx, or the zero
// TraceContext when ctx is nil or untraced.
func TraceFrom(ctx context.Context) TraceContext {
	if ctx == nil {
		return TraceContext{}
	}
	tc, _ := ctx.Value(traceKey{}).(TraceContext)
	return tc
}

// idState is the process-local ID sequence. The base folds in the process
// start time so two daemons minting the same sequence numbers still
// produce distinct IDs.
var idState struct {
	base uint64
	seq  atomic.Uint64
}

func init() {
	idState.base = mix64(uint64(time.Now().UnixNano()))
}

// NewTraceID mints a fresh trace ID.
func NewTraceID() string { return nextID() }

// NewSpanID mints a fresh span ID.
func NewSpanID() string { return nextID() }

func nextID() string {
	v := mix64(idState.base ^ idState.seq.Add(1))
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// StartSpan opens a traced span on the recorder: the span inherits the
// trace and job of ctx's TraceContext, records ctx's current span as its
// parent, and End emits one "span" event carrying all three. On a nil
// recorder or an untraced ctx it degrades to the plain Span behavior (a
// nil-recorder span is the disabled zero Span). The returned context
// carries the new span's TraceContext, so nested StartSpan calls build a
// parent chain.
func (r *Recorder) StartSpan(ctx context.Context, phase string) (Span, context.Context) {
	if r == nil {
		return Span{}, ctx
	}
	tc := TraceFrom(ctx)
	sp := Span{rec: r, phase: phase, start: time.Now(), trace: tc.Trace, parent: tc.Span, job: tc.Job}
	if tc.Valid() {
		child := tc.Child()
		sp.span = child.Span
		ctx = WithTrace(ctx, child)
	}
	return sp, ctx
}
