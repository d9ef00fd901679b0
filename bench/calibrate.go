package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark runs on is shared, and its speed drifts by
// a third or more over minutes as neighbours come and go: every kind of
// code slows together, in wall time and CPU time alike.  So each
// measured phase is paused every calInterval to time a fixed kernel
// that touches nothing of the program under test, and the phase's time
// metrics are scaled by calRef over the kernel's median time: they
// read as milliseconds on a machine where the kernel takes calRef,
// close to its median on the 2-vCPU VM the results were recorded on.
// The kernel neither allocates nor calls the repository, no op is in
// flight while it runs, and its time is the CPU time of its own thread,
// so goroutines the code under test leaves running (a collection still
// marking, a daemon finishing after its reply) do not count in it by
// taking the CPU.  They can still slow it a little through the shared
// caches and memory; the median over every pause's timings keeps a few
// disturbed ones from moving the scale.
const (
	calRef      = 1.0 // ms
	calInterval = 250 * time.Millisecond
	calReps     = 3
)

var calBuf = make([]uint32, 1<<17) // 512 KiB: random access past L1 and L2
var calSink uint32

// kernel is the fixed calibration work: a pseudo-random
// read-modify-write walk over calBuf.
func kernel() {
	x := uint32(1)
	var acc uint32
	for i := 0; i < 400_000; i++ {
		x = x*1664525 + 1013904223
		j := (x >> 8) & uint32(len(calBuf)-1)
		v := calBuf[j]
		acc += v ^ x
		calBuf[j] = v + acc>>3
	}
	calSink += acc
}

// calibrator interleaves kernel timings with a phase's ops.  Ops hold
// it shared; the pauses hold it alone, so a kernel never runs beside
// the program's own work.
type calibrator struct {
	mu      sync.RWMutex
	samples []float64 // kernel times, ms
	stop    chan struct{}
	done    chan struct{}
}

// startCalibrator begins pausing every calInterval until finish.
func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(calInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.pause()
			}
		}
	}()
	return c
}

func (c *calibrator) pause() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, kernelTimes(calReps)...)
}

// kernelTimes runs the kernel n times and returns the CPU time of each
// run in ms.
func kernelTimes(n int) []float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ts := make([]float64, n)
	for i := range ts {
		t0 := threadCPU()
		kernel()
		ts[i] = float64(threadCPU()-t0) / 1e6
	}
	return ts
}

// threadCPU returns the CPU time the calling thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// op runs f as one measured op, between pauses.
func (c *calibrator) op(f func()) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f()
}

// finish stops the pauses and returns the slowdown against the
// reference machine (above 1 when this machine ran slow), with at
// least one pause taken.
func (c *calibrator) finish() float64 {
	close(c.stop)
	<-c.done
	c.pause()
	return median(c.samples) / calRef
}
