package core

import "testing"

func TestFigure5RecipeValid(t *testing.T) {
	if err := Figure5Recipe().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFigure5WideInterface(t *testing.T) {
	iface, err := Figure5Recipe().WideInterface()
	if err != nil {
		t.Fatal(err)
	}
	// The wide interface must contain exactly the paper's shared items —
	// and must NOT contain the private attributes.
	wantA2I := []string{"qoe_per_cdn", "traffic_volume_per_cdn"}
	wantI2A := []string{"current_egress", "peering_capacity", "peering_congestion"}
	for _, name := range wantA2I {
		if !iface.Contains(name) {
			t.Errorf("wide interface missing A2I item %q", name)
		}
	}
	for _, name := range wantI2A {
		if !iface.Contains(name) {
			t.Errorf("wide interface missing I2A item %q", name)
		}
	}
	if iface.Contains("user_identity") || iface.Contains("isp_topology_full") {
		t.Error("private attribute leaked into the wide interface")
	}
	if iface.Size() != len(wantA2I)+len(wantI2A) {
		t.Errorf("interface size = %d, want %d", iface.Size(), len(wantA2I)+len(wantI2A))
	}
	// Directions.
	for _, it := range iface.Items {
		switch it.Data {
		case "qoe_per_cdn", "traffic_volume_per_cdn":
			if it.Direction != A2I {
				t.Errorf("%s direction = %v, want A2I", it.Data, it.Direction)
			}
		default:
			if it.Direction != I2A {
				t.Errorf("%s direction = %v, want I2A", it.Data, it.Direction)
			}
		}
	}
}

func TestWideInterfaceConsumers(t *testing.T) {
	iface, _ := Figure5Recipe().WideInterface()
	for _, it := range iface.Items {
		if it.Data != "peering_congestion" {
			continue
		}
		// Both AppP knobs need the InfP's congestion data.
		if len(it.Consumers) != 2 || it.Consumers[0] != "bitrate" || it.Consumers[1] != "cdn_choice" {
			t.Errorf("peering_congestion consumers = %v", it.Consumers)
		}
	}
}

func TestNarrow(t *testing.T) {
	iface, _ := Figure5Recipe().WideInterface()
	narrow := iface.Narrow("peering_congestion", "qoe_per_cdn", "not_a_real_item")
	if narrow.Size() != 2 {
		t.Errorf("narrow size = %d, want 2", narrow.Size())
	}
	if !narrow.Contains("peering_congestion") || !narrow.Contains("qoe_per_cdn") {
		t.Error("narrow lost kept items")
	}
	if narrow.Contains("current_egress") {
		t.Error("narrow retained dropped item")
	}
	empty := iface.Narrow()
	if empty.Size() != 0 {
		t.Error("empty narrow should share nothing")
	}
}

func TestRecipeValidationErrors(t *testing.T) {
	base := Figure5Recipe()

	dupKnob := base
	dupKnob.Knobs = append(dupKnob.Knobs, Knob{Name: "bitrate", Owner: OwnerInfP})
	if err := dupKnob.Validate(); err == nil {
		t.Error("duplicate knob accepted")
	}

	dupData := base
	dupData.Data = append(dupData.Data, DataAttr{Name: "qoe_per_cdn", Owner: OwnerInfP})
	if err := dupData.Validate(); err == nil {
		t.Error("duplicate data accepted")
	}

	badUseKnob := base
	badUseKnob.Uses = append(badUseKnob.Uses, Use{Knob: "ghost", Data: "qoe_per_cdn"})
	if err := badUseKnob.Validate(); err == nil {
		t.Error("unknown knob in use accepted")
	}
	if _, err := badUseKnob.WideInterface(); err == nil {
		t.Error("WideInterface should surface validation errors")
	}

	badUseData := base
	badUseData.Uses = append(badUseData.Uses, Use{Knob: "bitrate", Data: "ghost"})
	if err := badUseData.Validate(); err == nil {
		t.Error("unknown data in use accepted")
	}
}

func TestFigure3Recipe(t *testing.T) {
	r := figure3Recipe()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	iface, err := r.WideInterface()
	if err != nil {
		t.Fatal(err)
	}
	wantI2A := []string{"access_congestion", "bottleneck_attribution", "sustainable_session_rate"}
	wantA2I := []string{"session_count", "session_qoe"}
	for _, name := range wantI2A {
		if !iface.Contains(name) {
			t.Errorf("missing I2A item %q", name)
		}
	}
	for _, name := range wantA2I {
		if !iface.Contains(name) {
			t.Errorf("missing A2I item %q", name)
		}
	}
	if iface.Contains("subscriber_identity") {
		t.Error("private attribute leaked")
	}
	if iface.Size() != 5 {
		t.Errorf("interface size = %d, want 5", iface.Size())
	}
	// The E1 controller's narrow subset: congestion + suggested rate
	// I2A, QoE A2I.
	narrow := iface.Narrow("access_congestion", "sustainable_session_rate", "session_qoe")
	if narrow.Size() != 3 {
		t.Errorf("narrow size = %d, want 3", narrow.Size())
	}
}

func TestSameOwnerUsesStayPrivate(t *testing.T) {
	r := Recipe{
		Knobs: []Knob{{Name: "k", Owner: OwnerAppP}},
		Data:  []DataAttr{{Name: "d", Owner: OwnerAppP}},
		Uses:  []Use{{Knob: "k", Data: "d"}},
	}
	iface, err := r.WideInterface()
	if err != nil {
		t.Fatal(err)
	}
	if iface.Size() != 0 {
		t.Errorf("same-owner use produced interface items: %+v", iface.Items)
	}
}

func TestOwnerDirectionStrings(t *testing.T) {
	if OwnerAppP.String() != "AppP" || OwnerInfP.String() != "InfP" {
		t.Error("Owner strings wrong")
	}
	if A2I.String() != "A2I" || I2A.String() != "I2A" {
		t.Error("Direction strings wrong")
	}
}

// figure3Recipe encodes the flash-crowd use case (Figure 3, §2 "lack of
// visibility") through the same §4 recipe: the global controller would cap
// player bitrates using the ISP's access-congestion observations, and tune
// the ISP's traffic management using the AppP's session counts and
// experience. Its wide interface derives the exact items the E1 controller
// exchanges: access congestion + a suggested sustainable rate flowing I2A,
// session experience + population flowing A2I.
func figure3Recipe() Recipe {
	return Recipe{
		Knobs: []Knob{
			{Name: "bitrate_cap", Owner: OwnerAppP},
			{Name: "cdn_choice", Owner: OwnerAppP},
			{Name: "traffic_management", Owner: OwnerInfP},
		},
		Data: []DataAttr{
			{Name: "session_qoe", Owner: OwnerAppP},
			{Name: "session_count", Owner: OwnerAppP},
			{Name: "access_congestion", Owner: OwnerInfP},
			{Name: "sustainable_session_rate", Owner: OwnerInfP},
			{Name: "bottleneck_attribution", Owner: OwnerInfP},
			{Name: "subscriber_identity", Owner: OwnerInfP}, // private
		},
		Uses: []Use{
			// The global controller caps bitrates from the ISP's view...
			{Knob: "bitrate_cap", Data: "access_congestion"},
			{Knob: "bitrate_cap", Data: "sustainable_session_rate"},
			{Knob: "bitrate_cap", Data: "session_qoe"},
			// ...suppresses futile CDN switching using attribution...
			{Knob: "cdn_choice", Data: "bottleneck_attribution"},
			{Knob: "cdn_choice", Data: "session_qoe"},
			// ...and manages ISP traffic with the AppP's population view.
			{Knob: "traffic_management", Data: "session_count"},
			{Knob: "traffic_management", Data: "session_qoe"},
			{Knob: "traffic_management", Data: "access_congestion"},
		},
	}
}
