// Resume: snapshot an inference session mid-run, "crash", and continue it
// in a fresh session — asking bit-identical remaining questions and
// arriving at the same predicate an uninterrupted session would have.
// This is the in-process core of what cmd/joinserve does across process
// lifetimes with a store (-store-dir).
//
// Run with:
//
//	go run ./examples/resume
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	joininference "repro"
)

func main() {
	inst, goal := travelInstance()
	u := joininference.NewSession(inst).Universe()
	oracle := joininference.HonestOracle(goal)
	ctx := context.Background()
	opts := []joininference.Option{
		joininference.WithStrategy(joininference.StrategyL2S),
		joininference.WithSeed(7),
	}

	// Phase 1: a user answers two questions, then walks away.
	session := joininference.NewSession(inst, opts...)
	fmt.Println("— day 1 —")
	for i := 0; i < 2; i++ {
		askOne(ctx, session, oracle, u)
	}

	// Park the session as a small JSON document (a file, a row in a DB,
	// an HTTP response — anywhere).
	snap, err := session.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	var parked bytes.Buffer
	if err := snap.Encode(&parked); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsnapshot after %d answers (%d bytes of JSON):\n%s\n",
		snap.Asked, parked.Len(), parked.String())

	// Phase 2: days later, a new process resumes and finishes the run.
	restored, err := joininference.DecodeSnapshot(&parked)
	if err != nil {
		log.Fatal(err)
	}
	resumed, err := joininference.ResumeSession(inst, restored)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("— day 2 (resumed) —")
	for !resumed.Done() {
		askOne(ctx, resumed, oracle, u)
	}

	fmt.Printf("\ninferred after %d total questions: %s\n",
		resumed.Questions(), resumed.Inferred().Format(u))
	fmt.Printf("goal was:                            %s\n", goal.Format(u))
}

// askOne fetches the next question, prints it, and answers it honestly.
func askOne(ctx context.Context, s *joininference.Session, o joininference.Oracle, u *joininference.Universe) {
	qs, err := s.NextQuestions(ctx, 1)
	if err != nil {
		log.Fatal(err)
	}
	if len(qs) == 0 {
		return
	}
	l, err := o.Label(ctx, qs[0])
	if err != nil {
		log.Fatal(err)
	}
	answer := "No"
	if bool(l) {
		answer = "Yes"
	}
	fmt.Printf("  join %v with %v? %s\n", qs[0].RTuple, qs[0].PTuple, answer)
	if err := s.Answer(qs[0], l); err != nil {
		log.Fatal(err)
	}
}

// travelInstance builds the paper's running flight/hotel example.
func travelInstance() (*joininference.Instance, joininference.Pred) {
	fs, err := joininference.NewSchema("Flight", "From", "To", "Airline")
	if err != nil {
		log.Fatal(err)
	}
	flights := joininference.NewRelation(fs)
	flights.MustAddTuple("Paris", "Lille", "AF")
	flights.MustAddTuple("Paris", "NYC", "AA")
	flights.MustAddTuple("NYC", "Paris", "AA")

	hs, err := joininference.NewSchema("Hotel", "City", "Discount")
	if err != nil {
		log.Fatal(err)
	}
	hotels := joininference.NewRelation(hs)
	hotels.MustAddTuple("Paris", "AF")
	hotels.MustAddTuple("NYC", "AA")
	hotels.MustAddTuple("Lille", "AF")

	inst, err := joininference.NewInstance(flights, hotels)
	if err != nil {
		log.Fatal(err)
	}
	u := joininference.NewSession(inst).Universe()
	goal, err := joininference.PredFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
	if err != nil {
		log.Fatal(err)
	}
	return inst, goal
}
