package supplychain

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
)

// JobTicket authorises the printing of exactly one part. The IP owner
// issues a fixed batch of signed tickets to the contracted manufacturer;
// printing more parts than tickets — the "overproduction" leaf of the
// Fig. 2 taxonomy — fails authorisation.
type JobTicket struct {
	// Serial is the unique ticket number within the order.
	Serial uint64
	// PartDigest binds the ticket to one design (SHA-256 of the CAD or
	// STL artifact).
	PartDigest string
	// Signature covers Serial and PartDigest.
	Signature []byte
}

func ticketMessage(serial uint64, partDigest string) []byte {
	msg := make([]byte, 8+len(partDigest))
	binary.BigEndian.PutUint64(msg, serial)
	copy(msg[8:], partDigest)
	return msg
}

// IssueTickets signs n production tickets for the given part, numbered
// from startSerial.
func (s *Signer) IssueTickets(partDigest string, n int, startSerial uint64) ([]JobTicket, error) {
	if n < 1 {
		return nil, fmt.Errorf("supplychain: ticket count must be >= 1, got %d", n)
	}
	if partDigest == "" {
		return nil, fmt.Errorf("supplychain: ticket needs a part digest")
	}
	out := make([]JobTicket, 0, n)
	for i := 0; i < n; i++ {
		serial := startSerial + uint64(i)
		out = append(out, JobTicket{
			Serial:     serial,
			PartDigest: partDigest,
			Signature:  s.Sign(ticketMessage(serial, partDigest)),
		})
	}
	return out, nil
}

// TicketValidator runs inside the (trusted) printer firmware: it verifies
// signatures, binds tickets to the loaded design, and burns serials so a
// ticket authorises exactly one print.
type TicketValidator struct {
	pub        ed25519.PublicKey
	partDigest string
	burned     map[uint64]bool
}

// NewTicketValidator creates a validator for one production run.
func NewTicketValidator(pub ed25519.PublicKey, partDigest string) (*TicketValidator, error) {
	if len(pub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("supplychain: invalid public key size %d", len(pub))
	}
	if partDigest == "" {
		return nil, fmt.Errorf("supplychain: validator needs a part digest")
	}
	return &TicketValidator{
		pub:        pub,
		partDigest: partDigest,
		burned:     make(map[uint64]bool),
	}, nil
}

// Authorize validates one ticket and burns it. It returns an error for
// forged signatures, tickets for other designs, and replayed serials.
func (v *TicketValidator) Authorize(t JobTicket) error {
	if t.PartDigest != v.partDigest {
		return fmt.Errorf("supplychain: ticket %d is for a different design", t.Serial)
	}
	if !Verify(v.pub, ticketMessage(t.Serial, t.PartDigest), t.Signature) {
		return fmt.Errorf("supplychain: ticket %d signature invalid", t.Serial)
	}
	if v.burned[t.Serial] {
		return fmt.Errorf("supplychain: ticket %d already used (overproduction attempt)", t.Serial)
	}
	v.burned[t.Serial] = true
	return nil
}
