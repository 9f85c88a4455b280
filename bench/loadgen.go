package main

import (
	"sync"
	"time"
)

// sample is one measured request, timed from the start of its phase.
// due is when the schedule wanted it sent, sent when a connection took
// it, done when its response arrived.
type sample struct {
	due, sent, done time.Duration
	failed          bool
}

// latency is the request's latency as its user sees it: from when it
// was due, so a stall counts against every request it delays.
func (s sample) latency() time.Duration { return s.done - s.due }

// service is the time the server and connection spent on the request.
func (s sample) service() time.Duration { return s.done - s.sent }

// closedLoop keeps nconn connections busy until dur has passed: each
// sends request i = 0, 1, ... as soon as its previous one has completed
// (at least one request in all). after checks each response, untimed,
// and reports whether it was correct; with one connection it runs
// before the next request is sent. Samples come back in send order.
func closedLoop(dur time.Duration, nconn int, send func(i int) ([]byte, error), after func(i int, body []byte, err error) bool) []sample {
	start := time.Now()
	var (
		mu   sync.Mutex
		next int
		out  []sample
		wg   sync.WaitGroup
	)
	for c := 0; c < nconn; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := time.Since(start)
				mu.Lock()
				i := next
				if i > 0 && t >= dur {
					mu.Unlock()
					return
				}
				next++
				out = append(out, sample{})
				mu.Unlock()
				body, err := send(i)
				s := sample{due: t, sent: t, done: time.Since(start)}
				s.failed = !after(i, body, err)
				mu.Lock()
				out[i] = s
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// perSecond returns, for each whole second of a phase, how many of its
// requests completed in it.
func perSecond(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		k := int(s.done / time.Second)
		for len(out) <= k {
			out = append(out, 0)
		}
		out[k]++
	}
	if len(out) > 1 {
		out = out[:len(out)-1] // the last second is partial
	}
	return out
}

// openCount is how many requests an open-loop phase sends.
func openCount(rate float64, dur time.Duration) int {
	if n := int(rate * dur.Seconds()); n > 1 {
		return n
	}
	return 1
}

// openLoop sends openCount(rate, dur) requests, each due at a fixed
// schedule from the phase start whatever the server does, over at most
// nconn connections. A request that finds every connection busy waits
// for one; its latency counts the wait, and so does its lateness
// (sent − due). verify checks each response after it is timed.
func openLoop(rate float64, dur time.Duration, nconn int, send func(i int) ([]byte, error), verify func(i int, body []byte, err error) bool) []sample {
	out := make([]sample, openCount(rate, dur))
	due := func(k int) time.Duration { return time.Duration(float64(k) / rate * float64(time.Second)) }
	next := make(chan int)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < nconn; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				s := sample{due: due(k), sent: time.Since(start)}
				body, err := send(k)
				s.done = time.Since(start)
				s.failed = !verify(k, body, err)
				mu.Lock()
				out[k] = s
				mu.Unlock()
			}
		}()
	}
	for k := range out {
		time.Sleep(time.Until(start.Add(due(k))))
		next <- k
	}
	close(next)
	wg.Wait()
	return out
}
