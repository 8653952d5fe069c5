// Package allowstale exercises stale waivers: a //elan:vet-allow pragma is
// itself a finding when its analyzer ran on the package and suppressed
// nothing on its line. A pragma naming an analyzer that did not run is left
// alone.
package allowstale

// hotWaivers carries one stale waiver, one for an analyzer that did not
// run, and one that suppresses a finding.
//
//elan:hotpath
func hotWaivers(dst []float64, n int) []float64 {
	dst[0] = 1                //elan:vet-allow hotpathalloc — testdata: nothing here allocates // want `//elan:vet-allow hotpathalloc waives nothing`
	dst[1] = 2                //elan:vet-allow clockpolicy — testdata: clockpolicy does not run in this test
	return make([]float64, n) //elan:vet-allow hotpathalloc — testdata: this waiver suppresses the make
}
