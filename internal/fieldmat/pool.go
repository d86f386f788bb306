package fieldmat

// Persistent worker pool and recycled scratch for the matrix kernels.
//
// The seed spawned runtime.NumCPU() goroutines per MatMul/MatVec call; at
// the paper's round rate (every worker of every scheme does a shard matvec
// per iteration) that is thousands of goroutine start/stops per simulated
// second. The pool below starts GOMAXPROCS workers once and feeds them
// row-range tasks through a channel. Tasks (each owning its lazy
// accumulator row) and WaitGroups are recycled through buffered-channel
// free lists rather than sync.Pools: a sync.Pool is emptied by garbage
// collection and caches per P, stranding entries on a P that a later
// GOMAXPROCS change retires (testing.AllocsPerRun pins GOMAXPROCS to 1), so
// the next kernel call refilled it — an allocation that surfaced as a flaky
// 1 allocs/op in the CI alloc gate. The free lists are process-wide and
// survive GC, so a steady-state kernel call performs zero heap allocations
// deterministically (TestKernelsDoNotAllocate, the
// committed BENCH_kernels.json allocs/op column, and TestAllocGate).
//
// Tasks never submit sub-tasks, so the pool cannot deadlock on itself: every
// task runs straight-line kernel code over its row range.

import (
	"runtime"
	"sync"

	"repro/internal/field"
)

// ParallelThreshold is the minimum number of elements a kernel call must
// touch before the work is split across the pool: below it the channel
// handoff (~1µs per task) costs more than the arithmetic saves. 2^14
// multiply-adds is a few microseconds of single-core work at the lazy
// kernels' throughput, which is where fan-out starts to win on commodity
// core counts; TestParallelThresholdBoundary pins bit-exactness on both
// sides of the cut. MatVec counts rows·cols, MatMul counts the elements of
// both operands.
const ParallelThreshold = 1 << 14

// task is one row-range of a kernel call. run is always a static function
// (no captured state) so tasks are reusable and allocation-free; the slots
// cover the union of what the kernels need. acc is the task's own lazy
// accumulator row: it survives recycling (see putTask) and rests all-zero,
// because the kernels only dirty acc[0:len) and always flush it (which
// re-zeroes) before the task is recycled.
type task struct {
	run     func(*task)
	f       *field.Field
	a, b, c *Matrix
	x, y    []field.Elem
	lo, hi  int
	wg      *sync.WaitGroup
	acc     []uint64
}

var (
	poolOnce  sync.Once
	poolTasks chan *task
	poolSize  int

	// freeTasks and freeWGs are the GC-proof free lists (see the file
	// comment), sized for a few concurrent dispatchers per pool worker.
	freeTasks chan *task
	freeWGs   chan *sync.WaitGroup
)

// ensurePool starts the workers on first use, sized from GOMAXPROCS (the
// scheduler's actual parallelism budget) rather than NumCPU.
func ensurePool() {
	poolOnce.Do(func() {
		poolSize = runtime.GOMAXPROCS(0)
		if poolSize < 1 {
			poolSize = 1
		}
		poolTasks = make(chan *task, 4*poolSize)
		freeTasks = make(chan *task, 16*poolSize)
		freeWGs = make(chan *sync.WaitGroup, 16)
		for w := 0; w < poolSize; w++ {
			go func() {
				for t := range poolTasks {
					t.run(t)
					wg := t.wg
					putTask(t) // recycled before Done: dispatch returns with every task back
					wg.Done()
				}
			}()
		}
	})
}

// getTask takes a task from the free list, loaded with proto's kernel and
// operands (its own accumulator row is kept).
//
//avcc:noalloc
func getTask(proto *task) *task {
	ensurePool()
	var t *task
	select {
	case t = <-freeTasks:
	default:
		t = new(task) //avcc:alloc-ok free-list miss: first use, or more concurrent dispatches than the list holds
	}
	acc := t.acc
	*t = *proto
	t.acc = acc
	return t
}

// putTask drops t's operand references and returns it to the free list
// (or to the garbage collector when the list is full).
//
//avcc:noalloc
func putTask(t *task) {
	*t = task{acc: t.acc}
	select {
	case freeTasks <- t:
	default:
	}
}

// scratch returns t's zeroed accumulator row of length n.
//
//avcc:noalloc
func (t *task) scratch(n int) []uint64 {
	if cap(t.acc) < n {
		t.acc = make([]uint64, n) //avcc:alloc-ok first use per task and size class only
	}
	return t.acc[:n]
}

// dispatch splits [0, n) into one contiguous block per pool worker and
// blocks until all blocks complete. proto supplies the kernel and operands;
// it is copied into recycled tasks, never retained. Safe for concurrent use
// from many goroutines (the Go executor runs one matvec per worker at once).
//
//avcc:noalloc
func dispatch(n int, proto *task) {
	ensurePool()
	workers := poolSize
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Run inline, but still through a recycled copy: passing proto
		// itself into the indirect call would make it escape and cost the
		// callers their zero-allocation guarantee.
		t := getTask(proto)
		t.lo, t.hi = 0, n
		t.run(t)
		putTask(t)
		return
	}
	var wg *sync.WaitGroup
	select {
	case wg = <-freeWGs:
	default:
		wg = new(sync.WaitGroup) //avcc:alloc-ok free-list miss: first use, or more concurrent dispatches than the list holds
	}
	per := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		t := getTask(proto)
		t.lo, t.hi = lo, hi
		t.wg = wg
		wg.Add(1)
		poolTasks <- t
	}
	wg.Wait()
	select {
	case freeWGs <- wg:
	default:
	}
}
