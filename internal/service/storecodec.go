package service

import (
	"bytes"
	"encoding/binary"
	"fmt"

	joininference "repro"
)

// Service snapshot binary form, the record the store keeps per session:
//
//	"JSRV" | 1B version | uvarint len(id) | id | uvarint len(instance) |
//	instance | binary root snapshot (joininference.AppendBinary)
//
// The id is embedded (not only implied by the key) so a record is
// self-describing and survives being copied between stores.
var serviceSnapMagic = []byte("JSRV")

const serviceSnapVersion = 1

// maxServiceSnapName bounds the id/instance strings in a record.
const maxServiceSnapName = 4096

// encodeServiceSnapshot builds the binary store record for a session.
func encodeServiceSnapshot(snap *SessionSnapshot) []byte {
	buf := append([]byte(nil), serviceSnapMagic...)
	buf = append(buf, serviceSnapVersion)
	buf = binary.AppendUvarint(buf, uint64(len(snap.ID)))
	buf = append(buf, snap.ID...)
	buf = binary.AppendUvarint(buf, uint64(len(snap.Instance)))
	buf = append(buf, snap.Instance...)
	return snap.Snapshot.AppendBinary(buf)
}

// decodeServiceSnapshot parses a binary store record. Anything else — a
// record without the magic, a torn or corrupt body — is an error wrapping
// joininference.ErrBadSnapshot.
func decodeServiceSnapshot(data []byte) (*SessionSnapshot, error) {
	if !bytes.HasPrefix(data, serviceSnapMagic) {
		return nil, fmt.Errorf("%w: not a service snapshot record", joininference.ErrBadSnapshot)
	}
	b := data[len(serviceSnapMagic):]
	if len(b) == 0 || b[0] != serviceSnapVersion {
		return nil, fmt.Errorf("%w: service snapshot container version", joininference.ErrBadSnapshot)
	}
	b = b[1:]
	id, b, err := readLenString(b)
	if err != nil {
		return nil, err
	}
	instance, b, err := readLenString(b)
	if err != nil {
		return nil, err
	}
	sn, err := joininference.DecodeBinarySnapshot(b)
	if err != nil {
		return nil, err
	}
	return &SessionSnapshot{ID: id, Instance: instance, Snapshot: sn}, nil
}

func readLenString(b []byte) (string, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > maxServiceSnapName || uint64(len(b)-w) < n {
		return "", nil, fmt.Errorf("%w: bad string in service snapshot", joininference.ErrBadSnapshot)
	}
	return string(b[w : w+int(n)]), b[w+int(n):], nil
}
