// Package sim is the unreached analyzer's fixture; unreached_test.go
// pins its findings and injects the reached set.
package sim

func Reached() {}

func Unreached() {}

type T struct{}

func (t *T) PtrReached()   {}
func (t *T) PtrUnreached() {}
func (t T) ValReached()    {}
func (t T) ValUnreached()  {}

type Set[K comparable] struct{}

func (s *Set[K]) Add(k K) {}
func (s *Set[K]) Has(k K) {}

type Pair[A, B any] struct{}

func (p Pair[A, B]) Swap() {}

//qarv:allow unreached fixture: a test oracle
func Oracle() {}

//qarv:allow unreached
func Reasonless() {}

//qarv:allow unreached fixture: no longer true
func Stale() {}

func init() {}
