package lsasg

import (
	"errors"

	"lsasg/internal/core"
	"lsasg/internal/shard"
	"lsasg/internal/skipgraph"
)

// The public error surface: stable sentinels a caller (or a wire client on
// the far side of a connection) can match with errors.Is instead of
// string-matching. Every error leaving the public API that stems from one
// of the known internal conditions carries both the root sentinel and the
// internal error in its chain, so existing errors.Is checks against the
// internal sentinels keep working too.
var (
	// ErrUnknownKey reports an endpoint that is not in the keyspace — it
	// was deleted, removed, or never joined. A deterministic miss: ops and
	// migrations never overlap, so only a Put of the key changes the answer.
	ErrUnknownKey = errors.New("lsasg: unknown key")

	// ErrDeadNode reports an operation that ran into a crash-failed node
	// before a repair spliced it out. Transient: the next Put or Delete of
	// the key repairs it, so a retry after that succeeds.
	ErrDeadNode = errors.New("lsasg: dead node")

	// ErrOutOfRange reports a key or node index outside [0, N).
	ErrOutOfRange = errors.New("lsasg: index out of range")

	// ErrBarrier reports the service's failure, not the op's: the
	// rebalancer's migration at the load-window barrier behind an op failed.
	// Only Do and the calls built on it (Request, Get, Put, Delete, Scan)
	// return it, and the result returned next to it is valid and took
	// effect, its own error, if any, in OpResult.Err.
	ErrBarrier = errors.New("lsasg: window barrier failed")
)

// wrapErr lifts an internal error into the public error surface: if err's
// chain contains one of the known internal sentinels, the matching root
// sentinel is joined in front of it. Unknown errors pass through untouched.
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	switch {
	case errors.Is(err, skipgraph.ErrUnknownKey), errors.Is(err, core.ErrUnknownNode):
		return errors.Join(ErrUnknownKey, err)
	case errors.Is(err, skipgraph.ErrDeadNode), errors.Is(err, core.ErrCrashedNode):
		return errors.Join(ErrDeadNode, err)
	case errors.Is(err, core.ErrOutOfRange):
		return errors.Join(ErrOutOfRange, err)
	case errors.Is(err, shard.ErrBarrier):
		return errors.Join(ErrBarrier, err)
	}
	return err
}
