package search

import "testing"

func TestBudgetByName(t *testing.T) {
	for _, name := range []string{"smoke", "tiny", "small", "paper", "TINY"} {
		b, err := BudgetByName(name)
		if err != nil {
			t.Errorf("BudgetByName(%q): %v", name, err)
			continue
		}
		if err := b.DTR.Validate(); err != nil {
			t.Errorf("%s DTR budget: %v", name, err)
		}
		if err := b.STR.Validate(); err != nil {
			t.Errorf("%s STR budget: %v", name, err)
		}
	}
	if _, err := BudgetByName("nope"); err == nil {
		t.Error("unknown tier accepted")
	}
}
