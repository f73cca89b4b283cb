// Parallelism's gate. The paper's cost model counts page I/Os, and a hash
// join or hash aggregation spends none beyond the sort-merge plan's reads
// of its inputs; what the gate weighs is CPU, so under Parallelism the
// planner keeps small inputs on the sort-merge operators.
package costmodel

// MinParallelTuplesPerWorker is the smallest input cardinality per worker
// of Parallelism for which the planner places a hash operator in the
// sort-merge operators' place.
const MinParallelTuplesPerWorker = 512
