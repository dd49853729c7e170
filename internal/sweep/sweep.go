package sweep

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/simtime"
)

// Options configure one engine run.
type Options struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Journal, when set, checkpoints every finished job and seeds the run
	// with previously completed ones (resume). The engine compacts it on
	// an uninterrupted finish.
	Journal *Journal
	// Progress, when set, receives throughput lines (done/total, cases/s,
	// ETA) while the sweep runs, one every ~1% of the sweep.
	Progress io.Writer
	// Clock measures wall-clock throughput for progress reporting; nil
	// means the system stopwatch. Progress is cosmetic — nothing derived
	// from the clock feeds results.
	Clock simtime.Stopwatch
	// OnResult, when set, observes every finished job from the merging
	// goroutine (completion order, single-threaded).
	OnResult func(Result)
	// Interrupt, when closed, stops dispatching new jobs; in-flight jobs
	// finish and are journaled, then Run returns with Interrupted set.
	Interrupt <-chan struct{}
	// Obs, when enabled, receives sweep-level metrics (updated live from
	// the merging goroutine, so a /metrics endpoint can watch progress)
	// and, on completion, a per-case trace laid out in job order on the
	// sim-time axis — byte-identical at any worker count. Per-job
	// simulations are not individually traced here; wall-clock state
	// (vedr_sweep_wall_ms) comes from the sanctioned stopwatch and feeds
	// only the live endpoint and summary line, never the trace.
	Obs *obs.Scope
}

// Summary is a completed (or interrupted) run: results merged in job
// order — byte-identical at any worker count — plus bookkeeping.
type Summary struct {
	// Results has one entry per input job, in input order. Jobs satisfied
	// from the journal and jobs run now are indistinguishable here. For
	// an interrupted run, never-started jobs have only Job/Key set and
	// their keys are listed in Pending.
	Results []Result
	// Skipped counts jobs satisfied from the journal.
	Skipped int
	// Failed lists the keys whose jobs returned an error, in job order.
	Failed []string
	// Pending lists the keys never started (interrupted runs), in job
	// order.
	Pending []string
	// Interrupted reports whether the sweep stopped before running every
	// job.
	Interrupted bool
}

// Run schedules jobs across the worker pool and merges their results in
// job order. One failing job degrades the sweep (captured in its Result
// and in Summary.Failed) rather than aborting it; Run itself fails only on
// misuse (duplicate keys, nil exec) or journal I/O errors.
func Run(jobs []Job, exec Exec, opts Options) (*Summary, error) {
	if exec == nil {
		return nil, fmt.Errorf("sweep: nil exec")
	}
	n := len(jobs)
	keys := make([]string, n)
	byKey := make(map[string]int, n)
	for i, job := range jobs {
		k := job.Key()
		if prev, dup := byKey[k]; dup {
			return nil, fmt.Errorf("sweep: jobs %d and %d share key %q", prev, i, k)
		}
		byKey[k] = i
		keys[i] = k
	}

	sum := &Summary{Results: make([]Result, n)}
	ran := make([]bool, n)
	var pending []int
	for i := range jobs {
		if opts.Journal != nil {
			if r, ok := opts.Journal.Have(keys[i]); ok {
				r.Job, r.Key = jobs[i], keys[i] // trust the job list over the journal copy
				sum.Results[i] = r
				ran[i] = true
				sum.Skipped++
				continue
			}
		}
		pending = append(pending, i)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	stop := make(chan struct{})
	var stopOnce sync.Once
	interrupt := func() { stopOnce.Do(func() { close(stop) }) }
	defer interrupt()
	if opts.Interrupt != nil {
		go func() {
			select {
			case <-opts.Interrupt:
				interrupt()
			case <-stop:
			}
		}()
	}

	prog := newProgress(opts, n, sum.Skipped)
	met := newSweepMetrics(opts, n, sum.Skipped)
	if len(pending) > 0 {
		type indexed struct {
			idx int
			r   Result
		}
		jobCh := make(chan int)
		resCh := make(chan indexed, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range jobCh {
					resCh <- indexed{idx, runOne(exec, jobs[idx], keys[idx])}
				}
			}()
		}
		go func() {
			defer close(jobCh)
			for _, idx := range pending {
				select {
				case jobCh <- idx:
				case <-stop:
					return
				}
			}
		}()
		go func() {
			wg.Wait()
			close(resCh)
		}()

		var jerr error
		for x := range resCh {
			sum.Results[x.idx] = x.r
			ran[x.idx] = true
			if opts.Journal != nil && jerr == nil {
				if err := opts.Journal.Append(x.r); err != nil {
					jerr = err
					interrupt()
				}
			}
			if opts.OnResult != nil {
				opts.OnResult(x.r)
			}
			met.step(x.r)
			prog.step()
		}
		if jerr != nil {
			return nil, jerr
		}
	}

	for i := range jobs {
		if !ran[i] {
			sum.Interrupted = true
			sum.Results[i] = Result{Job: jobs[i], Key: keys[i]}
			sum.Pending = append(sum.Pending, keys[i])
			continue
		}
		if sum.Results[i].Err != "" {
			sum.Failed = append(sum.Failed, keys[i])
		}
	}
	met.finish(sum)
	traceSweep(opts.Obs.T(), sum)
	prog.done(sum)
	if opts.Journal != nil && !sum.Interrupted {
		if err := opts.Journal.Compact(sum.Results); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// runOne executes one job, converting errors (and panics from deep inside
// a case's simulation) into per-job capture so the sweep degrades instead
// of aborting. A livelocked case ends that way too: the simulation's event
// limit panics.
func runOne(exec Exec, job Job, key string) (out Result) {
	defer func() {
		if p := recover(); p != nil {
			out = Result{Job: job, Key: key, Err: fmt.Sprintf("panic: %v", p)}
		}
	}()
	r, err := exec(job)
	r.Job, r.Key = job, key
	if err != nil {
		r.Err = err.Error()
	}
	return r
}

// progress reports sweep throughput on an io.Writer. All timing comes from
// the injected stopwatch (the sanctioned wall-clock gateway) and feeds
// only the report lines, never the results.
type progress struct {
	w     io.Writer
	clock simtime.Stopwatch
	every int
	total int
	base  int // jobs satisfied from the journal before this run
	done_ int
}

func newProgress(opts Options, total, skipped int) *progress {
	p := &progress{w: opts.Progress, total: total, base: skipped, done_: skipped}
	if p.w == nil {
		return p
	}
	p.every = max(total/100, 1)
	p.clock = opts.Clock
	if p.clock == nil {
		p.clock = simtime.NewSystemStopwatch()
	}
	p.clock.Start()
	if skipped > 0 {
		p.emit("sweep: resuming, %d/%d jobs already journaled\n", skipped, total)
	}
	return p
}

// emit writes one progress line. Progress is best-effort advisory output,
// but a dead sink (closed pipe, full disk) must not be written to for the
// rest of a long sweep: the first write failure disables reporting.
func (p *progress) emit(format string, args ...any) {
	if _, err := fmt.Fprintf(p.w, format, args...); err != nil {
		p.w = nil
	}
}

func (p *progress) step() {
	p.done_++
	if p.w == nil || (p.done_-p.base)%p.every != 0 {
		return
	}
	elapsed := p.clock.Elapsed()
	ran := p.done_ - p.base
	line := fmt.Sprintf("sweep: %d/%d cases", p.done_, p.total)
	if elapsed > 0 && ran > 0 {
		rate := float64(ran) / elapsed.Seconds()
		line += fmt.Sprintf(" (%.1f cases/s", rate)
		if left := p.total - p.done_; left > 0 && rate > 0 {
			eta := simtime.Duration(float64(left) / rate * 1e9)
			line += fmt.Sprintf(", eta %v", eta.Round(simtime.Duration(1e8)))
		}
		line += ")"
	}
	p.emit("%s\n", line)
}

func (p *progress) done(sum *Summary) {
	if p.w == nil {
		return
	}
	switch {
	case sum.Interrupted:
		p.emit("sweep: interrupted at %d/%d cases (%d pending)\n",
			p.done_, p.total, len(sum.Pending))
	default:
		elapsed := p.clock.Elapsed()
		line := fmt.Sprintf("sweep: %d/%d cases done", p.done_, p.total)
		if ran := p.done_ - p.base; ran > 0 && elapsed > 0 {
			line += fmt.Sprintf(" (%.1f cases/s)", float64(ran)/elapsed.Seconds())
		}
		if len(sum.Failed) > 0 {
			line += fmt.Sprintf(", %d failed", len(sum.Failed))
		}
		p.emit("%s\n", line)
	}
}
