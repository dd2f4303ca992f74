// Package deadmod is the fixture module's root package: its exported API
// is live by definition, and so are the exported methods its type aliases
// re-export.
package deadmod

import "deadmod/store"

// Store re-exports store.Store: Get becomes API through the alias.
type Store = store.Store

// Open is exported API.
func Open() *Store { return store.New() }

func helper() {} // want `func helper has no reader outside its own declarations: delete it`
