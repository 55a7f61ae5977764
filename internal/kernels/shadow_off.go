//go:build !shadowtrace

package kernels

import "stef/internal/sched"

// shadowState is the disabled form of the shadow-write oracle: every hook
// is an empty method the compiler inlines to nothing, so instrumented
// kernels cost zero in normal builds. Build with -tags shadowtrace to get
// the recording implementation (shadow_on.go), which panics when two
// threads claim the same output row or a boundary replica write falls
// outside the partition's declared boundary set.
type shadowState struct{}

func (*shadowState) begin(*sched.Partition)                {}
func (*shadowState) end()                                  {}
func (*shadowState) own(th, level int, id int64)           {}
func (*shadowState) ownRun(th, level int, r *fiberRun)     {}
func (*shadowState) ownNodeRun(th, level int, nr *nodeRun) {}
func (*shadowState) boundary(th, l int, id int64)          {}

// outbufShadow is the disabled form of the accumulation-plan oracle: in
// normal builds the OutBuf hooks below inline to nothing. With
// -tags shadowtrace the recording implementation checks every hot-replica
// and cold-direct store against the plan's census (shadow_on.go).
type outbufShadow struct{}

func (b *OutBuf) shadowReset()                      {}
func (b *OutBuf) shadowHot(th, row int, slot int32) {}
func (b *OutBuf) shadowDirect(th, row int)          {}
