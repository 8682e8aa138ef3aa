// The content-addressed artifact store: every stored file lives at
// artifacts/<aa>/<sha256-hex> (first byte of the digest as a fan-out
// directory), written to a temp name, fsynced, renamed into place and
// the directory fsynced — so a path is only ever visible with its full,
// digest-matching content, and identical artifacts from different jobs
// share one copy.
// Jobs reference artifacts by (name, digest); deleting a job's metadata
// never corrupts another job's downloads.
package jobd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tquad/internal/durable"
)

// ArtifactStore is the content-addressed blob store under a data
// directory.  Safe for concurrent use: writers land under unique temp
// names and renames are atomic.
type ArtifactStore struct {
	dir string
}

// openArtifacts opens (creating if needed) the store directory.
func openArtifacts(dir string) (*ArtifactStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobd: artifacts: %w", err)
	}
	return &ArtifactStore{dir: dir}, nil
}

// path maps a digest onto its storage path, validating the digest's
// shape so a hostile name can never escape the store directory.
func (as *ArtifactStore) path(digest string) (string, error) {
	hexd, ok := strings.CutPrefix(digest, "sha256:")
	if !ok || len(hexd) != sha256.Size*2 {
		return "", fmt.Errorf("jobd: bad artifact digest %q", digest)
	}
	if _, err := hex.DecodeString(hexd); err != nil {
		return "", fmt.Errorf("jobd: bad artifact digest %q", digest)
	}
	return filepath.Join(as.dir, hexd[:2], hexd), nil
}

// put stores one blob from r under name and returns its artifact
// record.  Content already in the store is not rewritten.
func (as *ArtifactStore) put(name string, r io.Reader) (Artifact, error) {
	tmp, err := os.CreateTemp(as.dir, "put-*")
	if err != nil {
		return Artifact{}, fmt.Errorf("jobd: artifacts: %w", err)
	}
	defer os.Remove(tmp.Name())
	h := sha256.New()
	size, err := io.Copy(io.MultiWriter(tmp, h), r)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Artifact{}, fmt.Errorf("jobd: artifacts: %w", err)
	}
	digest := "sha256:" + hex.EncodeToString(h.Sum(nil))
	final, err := as.path(digest)
	if err != nil {
		return Artifact{}, err
	}
	if _, err := os.Stat(final); err == nil {
		// Already stored (same content from an earlier job): dedup.
		return Artifact{Name: name, Digest: digest, Size: size}, nil
	}
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return Artifact{}, fmt.Errorf("jobd: artifacts: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return Artifact{}, fmt.Errorf("jobd: artifacts: %w", err)
	}
	// The rename is durable only once the fan-out directory is synced;
	// until then a power cut could drop a blob the job journal already
	// references.
	if err := durable.SyncDir(filepath.Dir(final)); err != nil {
		return Artifact{}, fmt.Errorf("jobd: artifacts: %w", err)
	}
	return Artifact{Name: name, Digest: digest, Size: size}, nil
}

// PutBytes stores one in-memory blob.
func (as *ArtifactStore) PutBytes(name string, b []byte) (Artifact, error) {
	return as.put(name, bytes.NewReader(b))
}

// PutFile stores a copy of the file at path.
func (as *ArtifactStore) PutFile(name, path string) (Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return Artifact{}, fmt.Errorf("jobd: artifacts: %w", err)
	}
	defer f.Close()
	return as.put(name, f)
}

// Open returns a reader over the stored blob.  The caller closes it.
func (as *ArtifactStore) Open(digest string) (*os.File, error) {
	p, err := as.path(digest)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, fmt.Errorf("jobd: artifact %s: %w", digest, err)
	}
	return f, nil
}
