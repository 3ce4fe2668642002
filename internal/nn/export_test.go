package nn

// UseReferenceKernels selects the reference kernel path (true) or the fast
// path (false) for the tests and benchmarks of this package, the in-package
// ones and the model-level ones of package nn_test alike. It is the only
// way to reach the reference path: production code always runs the fast
// path.
func UseReferenceKernels(on bool) { refKernels.Store(on) }
