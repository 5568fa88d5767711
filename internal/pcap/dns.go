package pcap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// DNS constants.
const (
	DNSPort       = 53
	dnsTypeA      = 1
	dnsClassIN    = 1
	dnsFlagQR     = 1 << 15
	dnsFlagRD     = 1 << 8
	dnsFlagRA     = 1 << 7
	dnsHeaderSize = 12
)

// DNSMessage is a minimal DNS query or response: one A-record question and,
// for responses, one answer. The paper uses DNS traffic only to enumerate
// the domains apps resolve (§III-F), so A queries suffice.
type DNSMessage struct {
	ID       uint16
	Response bool
	Name     string
	// Answer is the resolved address; only meaningful when Response is true.
	Answer netip.Addr
	// TTL of the answer record.
	TTL uint32
}

// EncodeDNS serializes the message in RFC 1035 wire format.
func EncodeDNS(m DNSMessage) ([]byte, error) {
	name, err := encodeDNSName(m.Name)
	if err != nil {
		return nil, err
	}
	size := dnsHeaderSize + len(name) + 4
	if m.Response {
		size += len(name) + 10 + 4
	}
	b := make([]byte, 0, size)
	var hdr [dnsHeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:2], m.ID)
	flags := uint16(dnsFlagRD)
	if m.Response {
		flags |= dnsFlagQR | dnsFlagRA
	}
	binary.BigEndian.PutUint16(hdr[2:4], flags)
	binary.BigEndian.PutUint16(hdr[4:6], 1) // QDCOUNT
	if m.Response {
		binary.BigEndian.PutUint16(hdr[6:8], 1) // ANCOUNT
	}
	b = append(b, hdr[:]...)

	// Question section.
	b = append(b, name...)
	b = binary.BigEndian.AppendUint16(b, dnsTypeA)
	b = binary.BigEndian.AppendUint16(b, dnsClassIN)

	if m.Response {
		if !m.Answer.Is4() {
			return nil, fmt.Errorf("pcap: DNS answer for %s is not an IPv4 address", m.Name)
		}
		b = append(b, name...)
		b = binary.BigEndian.AppendUint16(b, dnsTypeA)
		b = binary.BigEndian.AppendUint16(b, dnsClassIN)
		b = binary.BigEndian.AppendUint32(b, m.TTL)
		b = binary.BigEndian.AppendUint16(b, 4)
		addr := m.Answer.As4()
		b = append(b, addr[:]...)
	}
	return b, nil
}

// DecodeDNS parses a message produced by EncodeDNS (no compression
// pointers; the simulated resolver never emits them).
func DecodeDNS(data []byte) (DNSMessage, error) {
	if len(data) < dnsHeaderSize {
		return DNSMessage{}, fmt.Errorf("pcap: DNS message of %d bytes shorter than header", len(data))
	}
	m := DNSMessage{ID: binary.BigEndian.Uint16(data[0:2])}
	flags := binary.BigEndian.Uint16(data[2:4])
	m.Response = flags&dnsFlagQR != 0
	qd := binary.BigEndian.Uint16(data[4:6])
	an := binary.BigEndian.Uint16(data[6:8])
	if qd != 1 {
		return DNSMessage{}, fmt.Errorf("pcap: DNS message has %d questions, want 1", qd)
	}
	name, off, err := decodeDNSName(data, dnsHeaderSize)
	if err != nil {
		return DNSMessage{}, err
	}
	m.Name = name
	off += 4 // QTYPE + QCLASS
	if m.Response {
		if an != 1 {
			return DNSMessage{}, fmt.Errorf("pcap: DNS response has %d answers, want 1", an)
		}
		_, off, err = decodeDNSName(data, off)
		if err != nil {
			return DNSMessage{}, fmt.Errorf("pcap: DNS answer name: %w", err)
		}
		if len(data) < off+10+4 {
			return DNSMessage{}, fmt.Errorf("pcap: truncated DNS answer record")
		}
		m.TTL = binary.BigEndian.Uint32(data[off+4 : off+8])
		rdLen := binary.BigEndian.Uint16(data[off+8 : off+10])
		if rdLen != 4 {
			return DNSMessage{}, fmt.Errorf("pcap: DNS A record rdlength %d, want 4", rdLen)
		}
		m.Answer = netip.AddrFrom4([4]byte(data[off+10 : off+14]))
	}
	return m, nil
}

func encodeDNSName(name string) ([]byte, error) {
	if name == "" {
		return nil, fmt.Errorf("pcap: empty DNS name")
	}
	labels := strings.Split(strings.TrimSuffix(name, "."), ".")
	out := make([]byte, 0, len(name)+2)
	for _, l := range labels {
		if l == "" {
			return nil, fmt.Errorf("pcap: DNS name %q has an empty label", name)
		}
		if len(l) > 63 {
			return nil, fmt.Errorf("pcap: DNS label %q exceeds 63 bytes", l)
		}
		out = append(out, byte(len(l)))
		out = append(out, l...)
	}
	return append(out, 0), nil
}

func decodeDNSName(data []byte, off int) (string, int, error) {
	var labels []string
	for {
		if off >= len(data) {
			return "", 0, fmt.Errorf("pcap: DNS name runs past message end")
		}
		l := int(data[off])
		off++
		if l == 0 {
			break
		}
		if l > 63 {
			return "", 0, fmt.Errorf("pcap: unsupported DNS label length %d (compression not emitted)", l)
		}
		if off+l > len(data) {
			return "", 0, fmt.Errorf("pcap: DNS label runs past message end")
		}
		if bytes.IndexByte(data[off:off+l], '.') >= 0 {
			// The dotted name could not tell this label's dot from a
			// label boundary, nor re-encode it.
			return "", 0, fmt.Errorf("pcap: DNS label %q contains a dot", data[off:off+l])
		}
		labels = append(labels, string(data[off:off+l]))
		off += l
	}
	if len(labels) == 0 {
		return "", 0, fmt.Errorf("pcap: empty DNS name")
	}
	return strings.Join(labels, "."), off, nil
}
