package wire

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestAPIDocJobObject keeps docs/API.md's "The job object" section in
// step with Job: the field table names exactly Job's JSON keys, and the
// section's JSON example is a job DecodeJob and ToEngine accept. A
// field added to or removed from Job fails here until the reference
// says so.
func TestAPIDocJobObject(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	start := strings.Index(section, "\n## The job object\n")
	if start < 0 {
		t.Fatal(`docs/API.md has no "## The job object" section`)
	}
	section = section[start+1:]
	// The section runs to its first subsection or the next section.
	if end := strings.Index(section[1:], "\n##"); end >= 0 {
		section = section[:end+1]
	}

	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\|").FindAllStringSubmatch(section, -1) {
		documented = append(documented, m[1])
	}
	var tags []string
	jt := reflect.TypeFor[Job]()
	for i := range jt.NumField() {
		if name, _, _ := strings.Cut(jt.Field(i).Tag.Get("json"), ","); name != "" && name != "-" {
			tags = append(tags, name)
		}
	}
	slices.Sort(documented)
	slices.Sort(tags)
	if !slices.Equal(documented, tags) {
		t.Errorf("job field table lists %v, wire.Job's JSON keys are %v", documented, tags)
	}

	ex := regexp.MustCompile("(?s)```json\n(.*?)```").FindStringSubmatch(section)
	if ex == nil {
		t.Fatal("the job object section has no ```json example")
	}
	j, err := DecodeJob([]byte(ex[1]))
	if err != nil {
		t.Fatalf("the job example does not decode: %v\n%s", err, ex[1])
	}
	if _, err := j.ToEngine(); err != nil {
		t.Fatalf("the job example is not a valid job: %v\n%s", err, ex[1])
	}
}
