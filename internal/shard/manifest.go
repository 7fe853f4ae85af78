package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/topics"
)

// ManifestFile is the manifest's file name inside a sharded artifact
// directory (next to the shard-<i>/ subdirectories).
const ManifestFile = "shard-manifest.json"

// manifestVersion guards the manifest schema itself.
const manifestVersion = 1

// ShardDir returns the artifact subdirectory of shard i.
func ShardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%d", i))
}

// ShardInfo records one shard's slice of the dataset.
type ShardInfo struct {
	// Topics is how many topics the partition assigns this shard.
	Topics int `json:"topics"`
	// Nodes is the shard's node projection: distinct graph nodes its
	// topics cover.
	Nodes int `json:"nodes"`
}

// Manifest describes a sharded artifact set: which partition function
// produced it and over what dataset shape. HydrateInto validates every
// field against the live dataset and the requested shard count —
// any mismatch is a loud error, never silent wrong answers.
type Manifest struct {
	Version   int         `json:"version"`
	Shards    int         `json:"shards"`
	Partition string      `json:"partition"`
	Topics    int         `json:"topics"`
	Nodes     int         `json:"nodes"`
	PerShard  []ShardInfo `json:"per_shard"`
}

// NewManifest builds the manifest for a partition over the dataset.
func NewManifest(p *Partitioner, g *graph.Graph) Manifest {
	m := Manifest{
		Version:   manifestVersion,
		Shards:    p.Shards(),
		Partition: PartitionFNV1a,
		Topics:    p.space.NumTopics(),
		Nodes:     g.NumNodes(),
	}
	for i := 0; i < p.Shards(); i++ {
		m.PerShard = append(m.PerShard, ShardInfo{Topics: len(p.Owned(i)), Nodes: p.NodeCoverage(i)})
	}
	return m
}

// WriteManifest persists m atomically (temp + rename) at
// root/ManifestFile, matching the artifact writers' crash contract.
func WriteManifest(root string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encode manifest: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(root, ManifestFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("shard: manifest temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("shard: write manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("shard: close manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(root, ManifestFile)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("shard: publish manifest: %w", err)
	}
	return nil
}

// ReadManifest loads the manifest under root.
func ReadManifest(root string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, ManifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("shard: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("shard: decode manifest: %w", err)
	}
	return m, nil
}

// Validate checks the manifest against the live dataset, the partition
// the reader will use, and the shard count the operator asked for.
func (m Manifest) Validate(space *topics.Space, g *graph.Graph, wantShards int) error {
	if m.Version != manifestVersion {
		return fmt.Errorf("shard: manifest version %d, this build reads %d", m.Version, manifestVersion)
	}
	if m.Partition != PartitionFNV1a {
		return fmt.Errorf("shard: manifest partition function %q, this build uses %q — artifacts were written by an incompatible partitioner",
			m.Partition, PartitionFNV1a)
	}
	if wantShards > 0 && m.Shards != wantShards {
		return fmt.Errorf("shard: manifest has %d shards, -shards asked for %d — re-run datagen or fix the flag",
			m.Shards, wantShards)
	}
	if m.Shards <= 0 {
		return fmt.Errorf("shard: manifest has invalid shard count %d", m.Shards)
	}
	if len(m.PerShard) != m.Shards {
		return fmt.Errorf("shard: manifest lists %d shard entries for %d shards", len(m.PerShard), m.Shards)
	}
	if m.Topics != space.NumTopics() {
		return fmt.Errorf("shard: manifest covers %d topics, space has %d — artifacts from a different snapshot?",
			m.Topics, space.NumTopics())
	}
	if m.Nodes != g.NumNodes() {
		return fmt.Errorf("shard: manifest covers %d nodes, graph has %d — artifacts from a different snapshot?",
			m.Nodes, g.NumNodes())
	}
	return nil
}
