package service

import (
	"bytes"
	"fmt"

	joininference "repro"
	"repro/internal/wire"
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

// maxServiceSnapName bounds the id/instance strings in a record. Ids are
// always 16 hex digits (validID), and the registry refuses longer names
// (Registry.Register), so every session the manager holds fits.
const maxServiceSnapName = 4096

// encodeServiceSnapshot builds the binary store record for a session.
func encodeServiceSnapshot(snap *SessionSnapshot) []byte {
	buf := append([]byte(nil), serviceSnapMagic...)
	buf = append(buf, serviceSnapVersion)
	buf = wire.AppendString(buf, snap.ID)
	buf = wire.AppendString(buf, snap.Instance)
	return snap.Snapshot.AppendBinary(buf)
}

// decodeServiceSnapshot parses a binary store record. Anything else — a
// record without the magic, a torn or corrupt body — is an error wrapping
// joininference.ErrBadSnapshot.
func decodeServiceSnapshot(data []byte) (*SessionSnapshot, error) {
	if !bytes.HasPrefix(data, serviceSnapMagic) {
		return nil, fmt.Errorf("%w: not a service snapshot record", joininference.ErrBadSnapshot)
	}
	d := wire.NewDec(data[len(serviceSnapMagic):], joininference.ErrBadSnapshot)
	if v := d.Byte(); v != serviceSnapVersion {
		d.Failf("service snapshot container version %d", v)
	}
	id := d.Str(maxServiceSnapName)
	instance := d.Str(maxServiceSnapName)
	if err := d.Err(); err != nil {
		return nil, err
	}
	sn, err := joininference.DecodeBinarySnapshot(data[len(data)-d.Len():]) // the rest of the record
	if err != nil {
		return nil, err
	}
	return &SessionSnapshot{ID: id, Instance: instance, Snapshot: sn}, nil
}
