package lint

// All returns the full analyzer registry in reporting order. The set is
// the project's invariant catalogue; DESIGN.md documents what each rule
// protects and README.md how to run and suppress them.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		FloatEq,
		CtxFlow,
		HotPath,
		Goleak,
		Locks,
		ErrDrop,
		PrintDebug,
		Depdag,
	}
}

// ByName returns the registered analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
