package leveldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// SSTable is an immutable sorted table: a flat block of length-prefixed
// entries plus a sparse index for binary search, built from a memtable
// flush or a compaction merge.
type SSTable struct {
	data  []byte
	index []indexEntry // one per indexStride entries
	count int
	first []byte
	last  []byte
}

type indexEntry struct {
	key []byte
	off int
}

const indexStride = 16

// BuildSSTable serializes entries (which must be in key order) into a table.
func BuildSSTable(entries []Entry) *SSTable {
	t := &SSTable{}
	for i, e := range entries {
		if i > 0 && bytes.Compare(entries[i-1].Key, e.Key) >= 0 {
			panic("leveldb: entries out of order in BuildSSTable")
		}
		if i%indexStride == 0 {
			t.index = append(t.index, indexEntry{key: append([]byte(nil), e.Key...), off: len(t.data)})
		}
		t.data = appendEntry(t.data, e)
		t.count++
	}
	if len(entries) > 0 {
		t.first = append([]byte(nil), entries[0].Key...)
		t.last = append([]byte(nil), entries[len(entries)-1].Key...)
	}
	return t
}

func appendEntry(b []byte, e Entry) []byte {
	var hdr [17]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(e.Key)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(e.Value)))
	binary.LittleEndian.PutUint64(hdr[8:], e.Seq)
	if e.Deleted {
		hdr[16] = 1
	}
	b = append(b, hdr[:]...)
	b = append(b, e.Key...)
	b = append(b, e.Value...)
	return b
}

func readEntry(b []byte, off int) (Entry, int, error) {
	if off+17 > len(b) {
		return Entry{}, 0, fmt.Errorf("leveldb: truncated sstable entry at %d", off)
	}
	klen := int(binary.LittleEndian.Uint32(b[off:]))
	vlen := int(binary.LittleEndian.Uint32(b[off+4:]))
	seq := binary.LittleEndian.Uint64(b[off+8:])
	deleted := b[off+16] == 1
	end := off + 17 + klen + vlen
	if end > len(b) {
		return Entry{}, 0, fmt.Errorf("leveldb: truncated sstable payload at %d", off)
	}
	return Entry{
		Key:     b[off+17 : off+17+klen],
		Value:   b[off+17+klen : end],
		Seq:     seq,
		Deleted: deleted,
	}, end, nil
}

// Len reports the number of entries (including tombstones).
func (t *SSTable) Len() int { return t.count }

// Get finds key in the table. found reports presence (possibly a tombstone,
// signalled by deleted).
func (t *SSTable) Get(key []byte) (value []byte, deleted, found bool) {
	if t.count == 0 || bytes.Compare(key, t.first) < 0 || bytes.Compare(key, t.last) > 0 {
		return nil, false, false
	}
	// Binary search the sparse index for the last block start <= key.
	i := sort.Search(len(t.index), func(i int) bool { return bytes.Compare(t.index[i].key, key) > 0 })
	if i == 0 {
		return nil, false, false
	}
	off := t.index[i-1].off
	for n := 0; n < indexStride && off < len(t.data); n++ {
		e, next, err := readEntry(t.data, off)
		if err != nil {
			panic(err)
		}
		switch bytes.Compare(e.Key, key) {
		case 0:
			return e.Value, e.Deleted, true
		case 1:
			return nil, false, false
		}
		off = next
	}
	return nil, false, false
}

// Entries decodes the full table in key order.
func (t *SSTable) Entries() []Entry {
	var out []Entry
	off := 0
	for off < len(t.data) {
		e, next, err := readEntry(t.data, off)
		if err != nil {
			panic(err)
		}
		out = append(out, e)
		off = next
	}
	return out
}

// MergeTables compacts newer over older: for duplicate keys the newer entry
// wins. dropTombstones must be true only when older is the oldest table in
// the stack — dropping a tombstone while a deeper table still holds the key
// would resurrect it.
func MergeTables(newer, older *SSTable, dropTombstones bool) *SSTable {
	a, b := newer.Entries(), older.Entries()
	var out []Entry
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var e Entry
		switch {
		case i >= len(a):
			e = b[j]
			j++
		case j >= len(b):
			e = a[i]
			i++
		default:
			switch bytes.Compare(a[i].Key, b[j].Key) {
			case -1:
				e = a[i]
				i++
			case 1:
				e = b[j]
				j++
			default:
				e = a[i] // newer wins
				i++
				j++
			}
		}
		if e.Deleted && dropTombstones {
			continue
		}
		out = append(out, e)
	}
	return BuildSSTable(out)
}
