//go:build !race

package clock

// contract is the race-build check of the Virtual registration rules
// (contract_race.go). In a normal build it is empty and its methods
// compile to nothing, so no park identifies its caller.
type contract struct{}

func (*contract) register()      {}
func (*contract) unregister()    {}
func (*contract) park()          {}
func (*contract) enterBlocking() {}
func (*contract) exitBlocking()  {}
