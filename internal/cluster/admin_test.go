package cluster

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/service"
)

const adminGoodNode = "http://127.0.0.1:7421"

// badNodeURLs cannot name a tmid node.
var badNodeURLs = []string{"not-a-url", "ftp://x", "http://", "%zz", "/relative", "://x", "http:///"}

// badReloadBodies are /admin/reload bodies with at least one bad entry.
var badReloadBodies = []string{
	`["", "%zz", "http://"]`,
	`["` + adminGoodNode + `", "ftp://x"]`,
	`["http://127.0.0.1:7422", "not-a-url"]`,
}

// adminRouter is a router with one member and no prober, driven in process.
func adminRouter(t testing.TB) *Router {
	rt, err := New(Config{Nodes: []string{adminGoodNode}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func adminPost(rt *Router, path, body string) int {
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code
}

func memberURLs(rt *Router) []string {
	var out []string
	for _, n := range rt.Ring().Nodes {
		out = append(out, n.URL)
	}
	return out
}

// TestRouterRejectsBadNodeURLs: /admin/add, /admin/drain and /admin/reload
// answer 400 to a URL that cannot name a node and leave the ring and its
// generation as they were; /admin/remove stays lenient so a bad member can
// still be removed.
func TestRouterRejectsBadNodeURLs(t *testing.T) {
	rt := adminRouter(t)
	want, gen := memberURLs(rt), rt.Generation()
	unchanged := func(what string) {
		t.Helper()
		if got := memberURLs(rt); !reflect.DeepEqual(got, want) || rt.Generation() != gen {
			t.Errorf("%s: members %q gen %d, want %q gen %d", what, got, rt.Generation(), want, gen)
		}
	}
	for _, op := range []string{"add", "drain"} {
		for _, node := range badNodeURLs {
			path := "/admin/" + op + "?" + url.Values{"node": {node}}.Encode()
			if code := adminPost(rt, path, ""); code != http.StatusBadRequest {
				t.Errorf("%s %q: status %d, want 400", op, node, code)
			}
			unchanged(op + " " + node)
		}
	}
	for _, body := range badReloadBodies {
		if code := adminPost(rt, "/admin/reload", body); code != http.StatusBadRequest {
			t.Errorf("reload %s: status %d, want 400", body, code)
		}
		unchanged("reload " + body)
	}
	if code := adminPost(rt, "/admin/remove?node=not-a-url", ""); code != http.StatusOK {
		t.Errorf("remove of a non-member: status %d, want 200", code)
	}
	if code := adminPost(rt, "/admin/add?node=http://127.0.0.1:7422/", ""); code != http.StatusOK {
		t.Errorf("add of a good node: status %d, want 200", code)
	}
	if got := memberURLs(rt); !reflect.DeepEqual(got, []string{adminGoodNode, "http://127.0.0.1:7422"}) {
		t.Errorf("members after a good add: %q", got)
	}
}

// TestNewRejectsBadNodeURLs: a router is never built over a member list
// with an entry that cannot name a node, so no library caller can put one
// on the ring.
func TestNewRejectsBadNodeURLs(t *testing.T) {
	for _, node := range badNodeURLs {
		rt, err := New(Config{Nodes: []string{adminGoodNode, node}, ProbeInterval: -1})
		if err == nil {
			rt.Close()
			t.Errorf("New accepted member %q", node)
		}
	}
	rt, err := New(Config{Nodes: []string{adminGoodNode + "/"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got := memberURLs(rt); !reflect.DeepEqual(got, []string{adminGoodNode}) {
		t.Errorf("members %q, want %q", got, adminGoodNode)
	}
}

// FuzzRouterReload posts arbitrary bodies to /admin/reload. An error is
// fine and a panic is not; a rejected body changes nothing, and after an
// accepted one every ring member passes the node URL check.
func FuzzRouterReload(f *testing.F) {
	for _, body := range badReloadBodies {
		f.Add(body)
	}
	f.Add(`["` + adminGoodNode + `", "https://node-b:7412/"]`)
	f.Add(`[]`)
	f.Add(`{"nodes": 1}`)
	rt := adminRouter(f)
	f.Fuzz(func(t *testing.T, body string) {
		before, gen := memberURLs(rt), rt.Generation()
		code := adminPost(rt, "/admin/reload", body)
		if code != http.StatusOK {
			if got := memberURLs(rt); !reflect.DeepEqual(got, before) || rt.Generation() != gen {
				t.Fatalf("status %d changed members %q -> %q (gen %d -> %d)", code, before, got, gen, rt.Generation())
			}
			return
		}
		for _, u := range memberURLs(rt) {
			if err := service.CheckNodeURL(u); err != nil {
				t.Fatalf("accepted body %q admitted member: %v", body, err)
			}
		}
	})
}
