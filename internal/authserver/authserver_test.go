package authserver

import (
	"net/netip"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

func buildServer() *Server {
	s := New()
	z := zone.New("example.com")
	z.SetSOA("ns1.example.com.", "hostmaster.example.com.", 1, 300)
	z.Add(dnswire.RR{Name: "example.com.", Type: dnswire.TypeNS, Class: dnswire.ClassINET,
		TTL: 3600, Data: &dnswire.NSData{Host: "ns1.example.com."}})
	z.Add(dnswire.RR{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET,
		TTL: 300, Data: &dnswire.AData{Addr: netip.MustParseAddr("10.0.0.80")}})
	z.Add(dnswire.RR{Name: "example.com.", Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET,
		TTL: 300, Data: &dnswire.SVCBData{Priority: 1, Target: "."}})
	s.AddZone(z)

	sub := zone.New("deep.example.com")
	sub.SetSOA("ns1.deep.example.com.", "h.deep.example.com.", 1, 300)
	sub.Add(dnswire.RR{Name: "x.deep.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET,
		TTL: 300, Data: &dnswire.AData{Addr: netip.MustParseAddr("10.0.2.2")}})
	s.AddZone(sub)
	return s
}

func query(name string, t dnswire.Type) *dnswire.Message {
	return dnswire.NewQuery(42, name, t, false)
}

func TestHandleDNSAnswer(t *testing.T) {
	s := buildServer()
	resp := s.HandleDNS(query("www.example.com.", dnswire.TypeA))
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answer) != 1 || !resp.Authoritative {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestHandleDNSLongestZoneMatch(t *testing.T) {
	s := buildServer()
	resp := s.HandleDNS(query("x.deep.example.com.", dnswire.TypeA))
	if len(resp.Answer) != 1 {
		t.Fatalf("deep zone not matched: %+v", resp)
	}
	if resp.Answer[0].Data.(*dnswire.AData).Addr.String() != "10.0.2.2" {
		t.Error("answer from wrong zone")
	}
}

func TestHandleDNSRefusesForeign(t *testing.T) {
	s := buildServer()
	resp := s.HandleDNS(query("other.net.", dnswire.TypeA))
	if resp.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

func TestHandleDNSFormErr(t *testing.T) {
	s := buildServer()
	q := &dnswire.Message{ID: 1}
	if resp := s.HandleDNS(q); resp.RCode != dnswire.RCodeFormErr {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

func TestRefuseAllMode(t *testing.T) {
	s := buildServer()
	s.RefuseAll = true
	if resp := s.HandleDNS(query("example.com.", dnswire.TypeA)); resp.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v", resp.RCode)
	}
}
