package store

import "fmt"

type Store struct{ n int }

func New() *Store { return &Store{} }

// Get has no reader in the module; the root alias re-exports it.
func (s *Store) Get() int { return s.n }

// get is unexported, so the alias does not re-export it.
func (s *Store) get() int { return s.n } // want `method Store.get has no reader`

// String satisfies fmt.Stringer: it lives as long as Store does.
func (s *Store) String() string { return fmt.Sprint(s.n) }
