package deferclose

import (
	"errors"
	"os"
	"sync"
)

type predictor struct{ k int }

type predictorPool struct{ pool sync.Pool }

func (p *predictorPool) Get() *predictor  { return p.pool.Get().(*predictor) }
func (p *predictorPool) Put(x *predictor) { p.pool.Put(x) }

// deferredClose is the canonical correct shape.
func deferredClose(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var buf [8]byte
	_, err = f.Read(buf[:])
	return err
}

// closedOnEachPath releases inline on both branches.
func closedOnEachPath(path string, probe func(*os.File) bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if probe(f) {
		f.Close()
		return nil
	}
	f.Close()
	return errors.New("probe failed")
}

// earlyReturnLeaks forgets the handle on the probe-failure path.
func earlyReturnLeaks(path string, probe func(*os.File) bool) error {
	f, err := os.Open(path) // want `f from os\.Open is not released on every path`
	if err != nil {
		return err
	}
	if !probe(f) {
		return errors.New("probe failed")
	}
	f.Close()
	return nil
}

// returnedToCaller transfers ownership; the caller closes.
func returnedToCaller(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// errorPathExempt: the nested validation failure still closes; only the
// acquire's own error path is exempt.
func errorPathExempt(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// poolGetLeaks can return before Put on the early-exit branch.
func (p *predictorPool) poolGetLeaks(n int) int {
	pred := p.Get() // want `pred from p\.Get is not released on every path`
	if n < 0 {
		return -1
	}
	out := pred.k + n
	p.Put(pred)
	return out
}

// poolGetDeferred releases the pooled object under defer right after the Get.
func (p *predictorPool) poolGetDeferred(n int) int {
	pred := p.Get()
	defer p.Put(pred)
	return pred.k + n
}

// syncPoolAsserted: the type assertion around Get still counts as an acquire.
func syncPoolAsserted(pool *sync.Pool, use func(*predictor) bool) bool {
	x := pool.Get().(*predictor) // want `x from pool\.Get is not released on every path`
	if use(x) {
		pool.Put(x)
		return true
	}
	return false
}

// handedToClosure escapes the analysis; the closure owns the lifetime.
func handedToClosure(path string) (func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return func() error { return f.Close() }, nil
}

// aliasOwnsIt: the alias takes over the release.
func aliasOwnsIt(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	var r *os.File
	r = f
	defer r.Close()
	return nil
}

// singletonHandle deliberately stays open for the process lifetime.
func singletonHandle(path string) (*os.File, error) {
	//lint:allow deferclose -- process-lifetime log sink, closed by the OS at exit
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var probe [1]byte
	if _, err := f.Read(probe[:]); err != nil {
		return nil, err
	}
	return f, nil
}
