package distsql

import (
	"fmt"
	"hash/fnv"
	"strings"

	"talign/internal/relation"
	"talign/internal/tuple"
	"talign/internal/value"
)

// shardOf maps one partition-key value to a worker index: FNV-1a over
// the value's order-preserving key encoding (ω included), modulo the
// worker count. Every node that partitions — the coordinator loading a
// table, the repartitioning shuffle — must use exactly this function, or
// colocation silently breaks.
func shardOf(v value.Value, n int) int {
	h := fnv.New64a()
	h.Write(v.AppendKey(nil))
	return int(h.Sum64() % uint64(n))
}

// partitionRelation splits rel into n shards by hashing column col.
// Value-equivalent tuples agree on every attribute, so they always land
// on the same shard — the property shard-local dedup and alignment rely
// on.
func partitionRelation(rel *relation.Relation, col string, n int) ([]*relation.Relation, error) {
	idx := -1
	for i, at := range rel.Schema.Attrs {
		if at.Name == strings.ToLower(col) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("distsql: partition column %q not in schema", col)
	}
	shards := make([]*relation.Relation, n)
	for i := range shards {
		shards[i] = relation.New(rel.Schema)
	}
	for _, t := range rel.Tuples {
		shards[shardOf(t.Vals[idx], n)].Tuples = append(shards[shardOf(t.Vals[idx], n)].Tuples, t)
	}
	return shards, nil
}

// partitionTuples is partitionRelation over bare tuples with a known
// column index (the repartitioning shuffle's inner loop).
func partitionTuples(tuples []tuple.Tuple, idx, n int) [][]tuple.Tuple {
	shards := make([][]tuple.Tuple, n)
	for _, t := range tuples {
		s := shardOf(t.Vals[idx], n)
		shards[s] = append(shards[s], t)
	}
	return shards
}
