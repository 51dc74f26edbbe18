package indexnode

import (
	"encoding/binary"
	"fmt"

	"mantle/internal/types"
	"mantle/internal/wire"
)

// CmdKind discriminates the replicated IndexNode commands.
type CmdKind uint8

const (
	// CmdAddDir inserts a directory's access entry (mkdir).
	CmdAddDir CmdKind = iota + 1
	// CmdRemoveDir removes a directory's access entry (rmdir).
	CmdRemoveDir
	// CmdRename moves a directory's access entry across parents and
	// carries the source path for cache invalidation.
	CmdRename
	// CmdSetPerm updates a directory's permission and carries its path
	// for cache invalidation.
	CmdSetPerm
)

// Cmd is a replicated IndexNode state-machine command. Invalidation paths
// ride in the Raft log, as §5.1.3 requires, so followers and learners
// invalidate their local TopDirPathCaches when the log applies.
type Cmd struct {
	Kind    CmdKind
	Pid     types.InodeID // parent of the (src) entry
	Name    string        // (src) entry name
	ID      types.InodeID // directory ID
	Perm    types.Perm
	DstPid  types.InodeID // rename destination parent
	DstName string        // rename destination name
	Path    string        // full path for invalidation (rename src, setperm target, rmdir target)
	LockID  string        // rename lock owner to clear on commit
}

// Encode serialises the command with a compact length-prefixed binary
// layout. The output length is computed exactly up front, so encoding
// performs a single allocation with no buffer growth (commands are
// encoded once per proposal and once per retry attempt on the write hot
// path).
func (c Cmd) Encode() []byte {
	size := 1 + 3*8 + 2 + 4*4 + len(c.Name) + len(c.DstName) + len(c.Path) + len(c.LockID)
	out := make([]byte, 0, size)
	out = append(out, byte(c.Kind))
	out = binary.LittleEndian.AppendUint64(out, uint64(c.Pid))
	out = binary.LittleEndian.AppendUint64(out, uint64(c.ID))
	out = binary.LittleEndian.AppendUint64(out, uint64(c.DstPid))
	out = binary.LittleEndian.AppendUint16(out, uint16(c.Perm))
	appendStr := func(s string) {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	appendStr(c.Name)
	appendStr(c.DstName)
	appendStr(c.Path)
	appendStr(c.LockID)
	return out
}

// DecodeCmd parses an encoded command.
func DecodeCmd(b []byte) (Cmd, error) {
	r := wire.NewReader(b)
	c := Cmd{
		Kind:   CmdKind(r.Byte()),
		Pid:    types.InodeID(r.U64()),
		ID:     types.InodeID(r.U64()),
		DstPid: types.InodeID(r.U64()),
		Perm:   types.Perm(r.U16()),
	}
	c.Name, c.DstName, c.Path, c.LockID = r.String32(), r.String32(), r.String32(), r.String32()
	if err := r.Err(); err != nil {
		return c, fmt.Errorf("indexnode: command: %w", err)
	}
	return c, nil
}
